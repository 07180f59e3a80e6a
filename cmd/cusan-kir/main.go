// cusan-kir is the developer tool for the kernel IR: format, verify,
// analyze, and execute textual kernel modules — the opt/llc analog of
// this reproduction's device toolchain.
//
// Usage:
//
//	cusan-kir fmt     <file.kir>   # parse + reprint (canonical form)
//	cusan-kir verify  <file.kir>   # type-check and call-graph check
//	cusan-kir analyze <file.kir>   # per-kernel argument access analysis + static race verdicts
//	cusan-kir race    <file.kir>   # static intra-kernel race check (exit 1 if a race is found)
//	cusan-kir run     <file.kir> -kernel NAME [-grid N] [-block N] [-fargs "1.5,2"] [-iargs "64"] [-elems N]
//
// `race` runs the internal/kstatic checker: per kernel it prints
// race-free (proved), race (with a concrete two-thread witness), or
// unknown, plus the barrier-interval segmentation. `analyze` appends
// the same verdict summary after the per-argument access table.
//
// `run` allocates one device float64 buffer of -elems elements per
// pointer parameter (zero-initialized), launches the kernel, and prints
// the first few elements of every buffer afterwards.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"cusango/internal/core"
	"cusango/internal/kaccess"
	"cusango/internal/kinterp"
	"cusango/internal/kir"
	"cusango/internal/kstatic"
	"cusango/internal/memspace"
)

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "cusan-kir: "+format+"\n", args...)
	os.Exit(1)
}

func loadModule(path string) *kir.Module {
	src, err := os.ReadFile(path)
	if err != nil {
		fatalf("%v", err)
	}
	m, err := kir.Parse(string(src))
	if err != nil {
		fatalf("%v", err)
	}
	return m
}

func main() {
	if len(os.Args) >= 2 {
		switch os.Args[1] {
		case "version", "-version", "--version":
			fmt.Println(core.VersionLine("cusan-kir"))
			return
		}
	}
	if len(os.Args) < 3 {
		fatalf("usage: cusan-kir fmt|verify|analyze|race|run|version <file.kir> [flags]")
	}
	cmd, path := os.Args[1], os.Args[2]
	switch cmd {
	case "fmt":
		fmt.Print(loadModule(path).String())
	case "verify":
		loadModule(path) // Parse verifies
		fmt.Println("ok")
	case "analyze":
		m := loadModule(path)
		res, err := kaccess.Analyze(m)
		if err != nil {
			fatalf("%v", err)
		}
		fmt.Print(res.String())
		rep, err := kstatic.Analyze(m)
		if err != nil {
			fatalf("%v", err)
		}
		if len(rep.Kernels) > 0 {
			fmt.Print("static:\n", indent(rep.String()))
		}
	case "race":
		rep, err := kstatic.Analyze(loadModule(path))
		if err != nil {
			fatalf("%v", err)
		}
		fmt.Print(rep.String())
		for _, kr := range rep.Kernels {
			if kr.Verdict == kstatic.VerdictRace {
				os.Exit(1)
			}
		}
	case "run":
		runCmd(path, os.Args[3:])
	default:
		fatalf("unknown command %q", cmd)
	}
}

func indent(s string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	for i, l := range lines {
		lines[i] = "  " + l
	}
	return strings.Join(lines, "\n") + "\n"
}

func runCmd(path string, args []string) {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	kernel := fs.String("kernel", "", "kernel to launch (required)")
	grid := fs.Int("grid", 1, "grid.x blocks")
	block := fs.Int("block", 64, "block.x threads")
	elems := fs.Int64("elems", 64, "float64 elements per pointer argument")
	fargsS := fs.String("fargs", "", "comma-separated float scalar arguments, in order")
	iargsS := fs.String("iargs", "", "comma-separated int scalar arguments, in order")
	show := fs.Int("show", 8, "elements of each buffer to print")
	if err := fs.Parse(args); err != nil {
		fatalf("%v", err)
	}
	if *kernel == "" {
		fatalf("run: -kernel is required")
	}
	m := loadModule(path)
	f := m.Func(*kernel)
	if f == nil || !f.Kernel {
		fatalf("no kernel %q in %s", *kernel, path)
	}

	fargs := splitFloats(*fargsS)
	iargs := splitInts(*iargsS)
	mem := memspace.New()
	var launchArgs []kinterp.Arg
	var bufs []memspace.Addr
	var bufNames []string
	for _, p := range f.Params {
		switch {
		case p.Type.IsPtr():
			a := mem.Alloc(*elems*8, memspace.KindDevice)
			bufs = append(bufs, a)
			bufNames = append(bufNames, p.Name)
			launchArgs = append(launchArgs, kinterp.Ptr(a))
		case p.Type == kir.TFloat:
			if len(fargs) == 0 {
				fatalf("missing float argument for parameter %q", p.Name)
			}
			launchArgs = append(launchArgs, kinterp.F64(fargs[0]))
			fargs = fargs[1:]
		default:
			if len(iargs) == 0 {
				fatalf("missing int argument for parameter %q", p.Name)
			}
			launchArgs = append(launchArgs, kinterp.Int(iargs[0]))
			iargs = iargs[1:]
		}
	}
	prog, err := kinterp.Compile(m)
	if err != nil {
		fatalf("%v", err)
	}
	eng := kinterp.New(prog, kinterp.Config{})
	if err := eng.Launch(*kernel, kinterp.Dim(*grid), kinterp.Dim(*block), launchArgs, mem); err != nil {
		fatalf("%v", err)
	}
	for i, a := range bufs {
		n := *show
		if int64(n) > *elems {
			n = int(*elems)
		}
		vals := make([]string, n)
		for j := 0; j < n; j++ {
			vals[j] = strconv.FormatFloat(mem.Float64(a+memspace.Addr(j*8)), 'g', -1, 64)
		}
		fmt.Printf("%s[0:%d] = [%s]\n", bufNames[i], n, strings.Join(vals, " "))
	}
}

func splitFloats(s string) []float64 {
	if s == "" {
		return nil
	}
	var out []float64
	for _, part := range strings.Split(s, ",") {
		x, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			fatalf("bad float %q", part)
		}
		out = append(out, x)
	}
	return out
}

func splitInts(s string) []int64 {
	if s == "" {
		return nil
	}
	var out []int64
	for _, part := range strings.Split(s, ",") {
		x, err := strconv.ParseInt(strings.TrimSpace(part), 10, 64)
		if err != nil {
			fatalf("bad int %q", part)
		}
		out = append(out, x)
	}
	return out
}
