package kstatic

import (
	"fmt"

	"cusango/internal/kinterp"
	"cusango/internal/kir"
	"cusango/internal/memspace"
)

// The dynamic differential oracle: run the kernel under the logging
// interpreter on every shared small geometry and report exact racing
// pairs from the access log. Soundness contract it audits:
//
//   - static race-free  ⇒  the oracle finds no race on any geometry;
//   - static race       ⇒  the oracle finds a race, provided the
//     witness geometry actually ran (was not Skipped).
//
// OracleElems sizes each pointer argument's buffer; integer arguments
// are bound to the launch's total thread count and float arguments to
// 1.0 — the exact binding witness search assumes.
const OracleElems = 1024

// OracleRace is one dynamically observed racing pair, attributed to a
// kernel parameter and element-aligned byte offset.
type OracleRace struct {
	Param   string
	Offset  int64
	Geom    Geom
	Thread1 int32
	Thread2 int32
	Kind1   AccessKind
	Kind2   AccessKind
}

// AccessKind here aliases the interpreter's event kind.
type AccessKind = kinterp.AccessKind

func (r *OracleRace) String() string {
	return fmt.Sprintf("%s+%d: thread %d (%s) vs thread %d (%s) at %s",
		r.Param, r.Offset, r.Thread1, r.Kind1, r.Thread2, r.Kind2, r.Geom)
}

// OracleResult aggregates one kernel's dynamic check over all geometries.
type OracleResult struct {
	// Races holds distinct (geometry, param, offset) racing sites, first
	// observed pair each, in deterministic order.
	Races []*OracleRace
	// Checked lists geometries that executed to completion.
	Checked []Geom
	// Skipped lists geometries whose launch errored (out-of-bounds under
	// the oracle's argument binding, step limit, ...): no claim there.
	Skipped []Geom
	// Events counts all logged accesses across checked geometries.
	Events int
}

// HasRace reports whether any geometry raced.
func (r *OracleResult) HasRace() bool { return len(r.Races) > 0 }

// CheckedGeom reports whether g executed to completion.
func (r *OracleResult) CheckedGeom(g Geom) bool {
	for _, c := range r.Checked {
		if c == g {
			return true
		}
	}
	return false
}

// RunOracle interprets the named kernel on every shared geometry with
// logging and scans the logs for conflicting unordered access pairs.
// The result is deterministic: serial execution, in-order pair scan.
func RunOracle(m *kir.Module, kernel string) (*OracleResult, error) {
	f := m.Func(kernel)
	if f == nil || !f.Kernel {
		return nil, fmt.Errorf("kstatic: no kernel %q", kernel)
	}
	prog, err := kinterp.Compile(m)
	if err != nil {
		return nil, err
	}
	eng := kinterp.New(prog, kinterp.Config{Workers: 1})
	res := &OracleResult{}
	for _, g := range Geometries(usesYDim(f)) {
		mem := memspace.New()
		total := g.Threads()
		bases := make([]memspace.Addr, len(f.Params))
		sizes := make([]int64, len(f.Params))
		args := make([]kinterp.Arg, len(f.Params))
		for i, p := range f.Params {
			switch {
			case p.Type.IsPtr():
				sizes[i] = int64(OracleElems) * p.Type.ElemSize()
				bases[i] = mem.Alloc(sizes[i], memspace.KindDevice)
				args[i] = kinterp.Ptr(bases[i])
			case p.Type == kir.TInt:
				args[i] = kinterp.Int(int64(total))
			default:
				args[i] = kinterp.F64(1)
			}
		}
		log, err := eng.LaunchLogged(kernel,
			kinterp.Dim2(g.GridX, g.GridY), kinterp.Dim2(g.BlockX, g.BlockY), args, mem)
		if err != nil {
			res.Skipped = append(res.Skipped, g)
			continue
		}
		res.Checked = append(res.Checked, g)
		res.Events += len(log.Events)
		scanLog(res, f, g, log, bases, sizes)
	}
	return res, nil
}

// scanLog finds conflicting unordered same-address pairs in one launch's
// log and appends them (deduplicated per racing site) to res.
func scanLog(res *OracleResult, f *kir.Function, g Geom, log *kinterp.AccessLog, bases []memspace.Addr, sizes []int64) {
	byAddr := make(map[memspace.Addr][]int32, len(log.Events))
	for i, ev := range log.Events {
		byAddr[ev.Addr] = append(byAddr[ev.Addr], int32(i))
	}
	type site struct {
		param  int
		offset int64
	}
	seen := make(map[site]bool)
	for i := range log.Events {
		e1 := &log.Events[i]
		for _, j := range byAddr[e1.Addr] {
			if int(j) <= i {
				continue
			}
			e2 := &log.Events[j]
			if e1.Thread == e2.Thread || !conflictEvents(e1.Kind, e2.Kind) {
				continue
			}
			if e1.Block == e2.Block && orderedEvents(e1, e2, log.Totals) {
				continue
			}
			param, off := attribute(f, bases, sizes, e1.Addr)
			s := site{param: param, offset: off}
			if seen[s] {
				continue
			}
			seen[s] = true
			name := fmt.Sprintf("addr(%#x)", uint64(e1.Addr))
			if param >= 0 {
				name = f.Params[param].Name
			}
			res.Races = append(res.Races, &OracleRace{
				Param: name, Offset: off, Geom: g,
				Thread1: e1.Thread, Thread2: e2.Thread,
				Kind1: e1.Kind, Kind2: e2.Kind,
			})
		}
	}
}

// conflictEvents mirrors the static conflict rule on dynamic kinds.
func conflictEvents(a, b AccessKind) bool {
	if a == kinterp.AccessRead && b == kinterp.AccessRead {
		return false
	}
	if a == kinterp.AccessAtomic && b == kinterp.AccessAtomic {
		return false
	}
	return true
}

// orderedEvents reports whether barrier intervals order two same-block
// events: they sit in different intervals AND the earlier-interval
// thread actually executed the separating barrier (its total barrier
// count exceeds its access's interval). Serial interpretation cannot
// observe ordering directly, so this reconstructs the happens-before a
// real lock-step execution would have.
func orderedEvents(e1, e2 *kinterp.AccessEvent, totals []int32) bool {
	if e1.Interval == e2.Interval {
		return false
	}
	lo := e1
	if e2.Interval < e1.Interval {
		lo = e2
	}
	if int(lo.Thread) >= len(totals) {
		return false
	}
	return totals[lo.Thread] >= lo.Interval+1
}

// attribute maps an absolute address back to (param index, byte offset);
// param is -1 when the address lies in no argument buffer.
func attribute(f *kir.Function, bases []memspace.Addr, sizes []int64, a memspace.Addr) (int, int64) {
	for i := range f.Params {
		if sizes[i] == 0 {
			continue
		}
		off := int64(a) - int64(bases[i])
		if off >= 0 && off < sizes[i] {
			return i, off
		}
	}
	return -1, int64(a)
}
