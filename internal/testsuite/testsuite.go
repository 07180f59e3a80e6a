// Package testsuite is the cusan-tests analog (paper §VI-C): a suite of
// small-scale CUDA-aware MPI programs, manually classified as correct or
// incorrect (containing data races or MPI usage errors), used to (i)
// verify the tool's detection capabilities and (ii) document the
// supported CUDA features and their modeled behaviour.
//
// Every case runs under the full MUST & CuSan flavor; the expected
// verdict is part of the case. The paper reports all 49 of its lit tests
// correctly classified; this suite plays the same role here, with the
// same category layout (cuda-to-mpi, mpi-to-cuda, plus local CUDA
// synchronization and MUST-check categories).
package testsuite

import (
	"fmt"
	"sync"

	"cusango/internal/core"
	"cusango/internal/cuda"
	"cusango/internal/kinterp"
	"cusango/internal/kir"
	"cusango/internal/memspace"
	"cusango/internal/must"
	"cusango/internal/tsan"
)

// Case is one classified mini-program.
type Case struct {
	// Name is category/test, e.g. "cuda-to-mpi/send_default_nosync".
	Name string
	// Doc says what behaviour the case pins down.
	Doc string
	// Ranks is the world size (default 2).
	Ranks int
	// ExpectRace marks cases that must be flagged by the race analysis.
	ExpectRace bool
	// ExpectIssue, when non-nil, requires a MUST finding of this kind.
	ExpectIssue *must.IssueKind
	// App is the program body, run on every rank.
	App func(s *core.Session) error
}

const bufN = 64 // elements per test buffer

// Module returns the kernels shared by all cases. It is built once per
// process and shared by every job; its first compile seals it, so
// callers must not Add to it.
func Module() *kir.Module { return module() }

var module = sync.OnceValue(buildModule)

// buildModule builds the kernels shared by all cases.
func buildModule() *kir.Module {
	m := kir.NewModule()
	m.Add(kir.KernelFunc("k_write", []kir.Param{
		{Name: "buf", Type: kir.TPtrF64},
		{Name: "n", Type: kir.TInt},
	}, func(e *kir.Emitter) {
		i := e.GlobalIDX()
		e.If(e.Lt(i, e.Arg("n")), func() {
			e.StoreIdx(e.Arg("buf"), i, e.ToFloat(i))
		})
	}))
	m.Add(kir.KernelFunc("k_read", []kir.Param{
		{Name: "out", Type: kir.TPtrF64},
		{Name: "buf", Type: kir.TPtrF64},
		{Name: "n", Type: kir.TInt},
	}, func(e *kir.Emitter) {
		i := e.GlobalIDX()
		e.If(e.Lt(i, e.Arg("n")), func() {
			e.StoreIdx(e.Arg("out"), i, e.LoadIdx(e.Arg("buf"), i))
		})
	}))
	m.Add(kir.KernelFunc("k_inc", []kir.Param{
		{Name: "buf", Type: kir.TPtrF64},
		{Name: "n", Type: kir.TInt},
	}, func(e *kir.Emitter) {
		i := e.GlobalIDX()
		e.If(e.Lt(i, e.Arg("n")), func() {
			p := e.GEP(e.Arg("buf"), i)
			e.Store(p, e.Add(e.Load(p), e.ConstF(1)))
		})
	}))
	return m
}

// helpers shared by case bodies ------------------------------------------

func launch(s *core.Session, kernel string, stream *cuda.Stream, ptrs ...memspace.Addr) error {
	args := make([]kinterp.Arg, 0, len(ptrs)+1)
	for _, p := range ptrs {
		args = append(args, kinterp.Ptr(p))
	}
	args = append(args, kinterp.Int(bufN))
	return s.Dev.LaunchKernel(kernel, kinterp.Dim(1), kinterp.Dim(bufN), args, stream)
}

// Verdict is the outcome of running one case.
type Verdict struct {
	Case   Case
	Races  int64
	Issues []*must.Issue
	Err    error
}

// Pass reports whether the observed behaviour matches the expectation.
func (v *Verdict) Pass() bool {
	if v.Err != nil {
		return false
	}
	if (v.Races > 0) != v.Case.ExpectRace {
		return false
	}
	if v.Case.ExpectIssue != nil {
		found := false
		for _, is := range v.Issues {
			if is.Kind == *v.Case.ExpectIssue {
				found = true
			}
		}
		if !found {
			return false
		}
	}
	return true
}

func (v *Verdict) String() string {
	status := "PASS"
	if !v.Pass() {
		status = "FAIL"
	}
	detail := ""
	if v.Err != nil {
		detail = fmt.Sprintf(" err=%v", v.Err)
	}
	return fmt.Sprintf("%s: CuSanTest :: %s (races=%d issues=%d%s)",
		status, v.Case.Name, v.Races, len(v.Issues), detail)
}

// RunCase executes one case under the full MUST & CuSan configuration
// with the default (eager) device.
func RunCase(c Case) *Verdict {
	return RunCaseWith(c, cuda.Config{})
}

// RunCaseWith executes one case with an explicit device configuration —
// the async-streams pass runs the identical suite on the genuinely
// asynchronous executor and must produce identical verdicts (the
// tooling's view is enqueue-time interception in both modes).
func RunCaseWith(c Case, cudaCfg cuda.Config) *Verdict {
	return runCase(c, cudaCfg, tsan.Config{}, Env{})
}

// RunCaseTSan executes one case with an explicit sanitizer
// configuration — the engine-differential pass runs the identical
// suite under the batched and the slow reference shadow engines and
// must produce identical verdicts.
func RunCaseTSan(c Case, tcfg tsan.Config) *Verdict {
	return runCase(c, cuda.Config{}, tcfg, Env{})
}

func runCase(c Case, cudaCfg cuda.Config, tcfg tsan.Config, env Env) *Verdict {
	ranks := c.Ranks
	if ranks == 0 {
		ranks = 2
	}
	v := &Verdict{Case: c}
	res, err := core.Run(core.Config{
		Flavor:   core.MUSTCuSan,
		Ranks:    ranks,
		Module:   Module(),
		Cuda:     cudaCfg,
		TSanCfg:  tcfg,
		Ctx:      env.Ctx,
		MaxSteps: env.MaxSteps,
	}, c.App)
	if err != nil {
		v.Err = err
		return v
	}
	if err := res.FirstError(); err != nil {
		v.Err = err
		return v
	}
	v.Races = res.TotalRaces()
	for i := range res.Ranks {
		v.Issues = append(v.Issues, res.Ranks[i].Issues...)
	}
	return v
}

// RunAll executes every case and returns the verdicts in order.
func RunAll() []*Verdict {
	cases := Cases()
	out := make([]*Verdict, len(cases))
	for i, c := range cases {
		out[i] = RunCase(c)
	}
	return out
}

// Cases returns the full classified suite.
func Cases() []Case {
	var all []Case
	all = append(all, cudaToMPICases()...)
	all = append(all, mpiToCUDACases()...)
	all = append(all, mpiModeCases()...)
	all = append(all, wideScheduleCases()...)
	all = append(all, localCUDACases()...)
	all = append(all, mustCheckCases()...)
	return all
}

func issueOf(k must.IssueKind) *must.IssueKind { return &k }
