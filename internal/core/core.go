// Package core is the toolchain of the reproduction: it "compiles and
// links" a CUDA-aware MPI application against an instrumentation flavor
// and runs it.
//
// The flavors mirror the paper's evaluation matrix (§V):
//
//	Vanilla    — uninstrumented build
//	TSan       — host memory accesses instrumented, no tool runtimes
//	MUST       — TSan + MUST's MPI interception
//	CuSan      — TSan + CuSan's CUDA interception + TypeART
//	MUSTCuSan  — everything (the full checker)
//
// A Session is one rank's view of the "linked binary": its address
// space, CUDA device, communicator, and — depending on flavor — the
// sanitizer and tool runtimes. The Session's typed allocation helpers
// and load/store accessors are the analog of TypeART's allocation
// instrumentation and TSan's compiler-inserted memory-access callbacks
// in host code.
package core

import (
	"context"
	"fmt"
	"strings"
	"sync"

	"cusango/internal/cuda"
	"cusango/internal/cusan"
	"cusango/internal/faults"
	"cusango/internal/kir"
	"cusango/internal/memspace"
	"cusango/internal/mpi"
	"cusango/internal/must"
	"cusango/internal/sched"
	"cusango/internal/trace"
	"cusango/internal/tsan"
	"cusango/internal/typeart"
)

// Flavor selects the instrumentation configuration.
type Flavor uint8

// Instrumentation flavors (paper §V).
const (
	// Vanilla is the unmodified application.
	Vanilla Flavor = iota
	// TSan instruments host memory accesses only.
	TSan
	// MUST adds MPI semantics on top of TSan.
	MUST
	// CuSan adds CUDA semantics and TypeART on top of TSan.
	CuSan
	// MUSTCuSan combines MUST and CuSan (the full tool).
	MUSTCuSan
)

// Flavors lists all flavors in evaluation order.
var Flavors = []Flavor{Vanilla, TSan, MUST, CuSan, MUSTCuSan}

func (f Flavor) String() string {
	switch f {
	case Vanilla:
		return "vanilla"
	case TSan:
		return "tsan"
	case MUST:
		return "must"
	case CuSan:
		return "cusan"
	case MUSTCuSan:
		return "must+cusan"
	default:
		return fmt.Sprintf("flavor(%d)", uint8(f))
	}
}

// ParseFlavor resolves a flavor name (case-insensitive).
func ParseFlavor(s string) (Flavor, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "vanilla":
		return Vanilla, nil
	case "tsan":
		return TSan, nil
	case "must":
		return MUST, nil
	case "cusan":
		return CuSan, nil
	case "must+cusan", "mustcusan", "must-cusan", "all":
		return MUSTCuSan, nil
	default:
		return Vanilla, fmt.Errorf("core: unknown flavor %q", s)
	}
}

// HasTSan reports whether the flavor carries a sanitizer.
func (f Flavor) HasTSan() bool { return f != Vanilla }

// HasMUST reports whether the flavor intercepts MPI.
func (f Flavor) HasMUST() bool { return f == MUST || f == MUSTCuSan }

// HasCuSan reports whether the flavor intercepts CUDA.
func (f Flavor) HasCuSan() bool { return f == CuSan || f == MUSTCuSan }

// Config describes one job.
type Config struct {
	Flavor Flavor
	// Ranks is the world size (default 2).
	Ranks int
	// Module holds the application's device code. Run compiles it once
	// per module (cuda.Compile): reuse one module across jobs.
	Module *kir.Module
	// Cuda configures the simulated device (worker pool etc).
	Cuda cuda.Config
	// TSanCfg configures the sanitizer.
	TSanCfg tsan.Config
	// CusanOpts configures the CuSan runtime.
	CusanOpts cusan.Options
	// MustOpts configures the MUST runtime. The paper's evaluation
	// configures MUST "to only check for data races of (non-blocking)
	// MPI communication"; set DisableTypeChecks for that configuration.
	MustOpts must.Options
	// Sched, when non-nil, places the job's MPI world under a schedule
	// controller: every nondeterministic completion choice becomes an
	// explicit decision point decided by the controller's chooser, so a
	// run is an exact function of its schedule spec (see internal/sched
	// and internal/explore). Build a fresh controller per run, sized to
	// Ranks. Controlled jobs should use the default eager CUDA mode —
	// async stream executors are goroutines the controller cannot park.
	Sched *sched.Controller
	// Faults, when non-nil, is the deterministic fault-injection plan.
	// Each rank derives its injector from (Faults.Seed, rank), so any
	// injected fault is exactly replayable from its (seed, site,
	// occurrence) triple. A nil plan injects nothing.
	Faults *faults.Plan
	// Trace, when non-nil, is asked for a per-rank trace writer before
	// the session is built; a non-nil writer taps every interception
	// point (CUDA, MPI, host accesses, typed allocations) so the rank's
	// event stream can be replayed offline. Recording is independent of
	// the flavor: the taps wrap whatever tool hooks the flavor installs,
	// including none.
	Trace func(rank int) *trace.Writer
	// Ctx, when non-nil, supervises the run: when it is cancelled the
	// MPI world is torn down (mpi.World.Cancel) so ranks blocked or
	// polling in MPI unblock with an abort error wrapping the context
	// cause. Ranks spinning in pure computation are not preempted — the
	// campaign watchdog abandons those after a grace window.
	Ctx context.Context
	// MaxSteps, when > 0, caps each rank's full MPI operations
	// (mpi.World.SetOpBudget): the uncontrolled-run logical step budget.
	// Controlled runs (Sched != nil) should instead cap the decision log
	// via sched.Controller.SetStepBudget, which bounds the schedule
	// itself.
	MaxSteps int64
}

// Session is one rank's execution context.
type Session struct {
	rank int
	size int

	Mem     *memspace.Memory
	Dev     *cuda.Device
	Comm    *mpi.Comm
	San     *tsan.Sanitizer  // nil under Vanilla
	TypeArt *typeart.Runtime // nil under Vanilla and TSan
	Cusan   *cusan.Runtime   // nil unless flavor has CuSan
	Must    *must.Runtime    // nil unless flavor has MUST

	flavor    Flavor
	loadInfo  *tsan.AccessInfo
	storeInfo *tsan.AccessInfo
	rec       *trace.Recorder  // nil unless Config.Trace supplied a writer
	inj       *faults.Injector // nil unless Config.Faults set
	degrade   *degradeState    // always non-nil; trips on checker panics
}

// Rank returns the session's MPI rank.
func (s *Session) Rank() int { return s.rank }

// Size returns the world size.
func (s *Session) Size() int { return s.size }

// Flavor returns the effective instrumentation flavor. A rank whose
// checker crashed and was contained (see Degradation) reports Vanilla:
// its tool hooks are no-ops from the trip point on.
func (s *Session) Flavor() Flavor {
	if s.degrade.tripped() {
		return Vanilla
	}
	return s.flavor
}

func newSession(cfg Config, prog *cuda.Program, rank int, world *mpi.World) (*Session, error) {
	s := &Session{
		rank:    rank,
		size:    world.Size(),
		Mem:     memspace.New(),
		flavor:  cfg.Flavor,
		inj:     cfg.Faults.Injector(rank),
		degrade: &degradeState{rank: rank},
	}
	if cfg.Flavor.HasTSan() {
		s.San = tsan.New(cfg.TSanCfg)
		s.loadInfo = &tsan.AccessInfo{Site: "host code", Object: "load"}
		s.storeInfo = &tsan.AccessInfo{Site: "host code", Object: "store"}
	}
	if cfg.Trace != nil {
		if w := cfg.Trace(rank); w != nil {
			s.rec = trace.NewRecorder(w)
		}
	}
	var cudaHooks cuda.Hooks
	if cfg.Flavor.HasCuSan() {
		s.TypeArt = typeart.NewRuntime(nil)
		s.Cusan = cusan.New(s.San, s.TypeArt, cfg.CusanOpts)
		// Panic containment wraps the tool hooks only; the recorder tap
		// below stays outside so tracing survives a checker crash.
		cudaHooks = guardedCudaHooks{inner: s.Cusan, ds: s.degrade}
	}
	if s.rec != nil {
		cudaHooks = s.rec.CudaHooks(cudaHooks)
	}
	cudaCfg := cfg.Cuda
	cudaCfg.Inject = s.inj
	s.Dev = cuda.NewDevice(s.Mem, prog, cudaCfg, cudaHooks)
	var mpiHooks mpi.Hooks
	if cfg.Flavor.HasMUST() {
		s.Must = must.New(s.San, s.TypeArt, cfg.MustOpts)
		mpiHooks = guardedMPIHooks{inner: s.Must, ds: s.degrade}
	}
	if s.rec != nil {
		mpiHooks = s.rec.MPIHooks(mpiHooks)
	}
	comm, err := world.AttachRank(rank, s.Mem, mpiHooks)
	if err != nil {
		return nil, err
	}
	comm.SetInjector(s.inj)
	s.Comm = comm
	return s, nil
}

// --- instrumented host accessors -----------------------------------------
//
// Application host code dereferences simulated pointers through these;
// under a sanitized flavor each access is reported to TSan first, which
// is what Clang's -fsanitize=thread instrumentation does to host loads
// and stores (relevant for managed memory and MPI buffers, paper Fig. 5
// step 1).

// LoadF64 reads a float64 from host-accessible memory.
func (s *Session) LoadF64(a memspace.Addr) float64 {
	if s.rec != nil {
		s.rec.HostRead(a, 8)
	}
	s.sanRead(a, 8)
	return s.Mem.Float64(a)
}

// StoreF64 writes a float64.
func (s *Session) StoreF64(a memspace.Addr, v float64) {
	if s.rec != nil {
		s.rec.HostWrite(a, 8)
	}
	s.sanWrite(a, 8)
	s.Mem.SetFloat64(a, v)
}

// LoadI64 reads an int64.
func (s *Session) LoadI64(a memspace.Addr) int64 {
	if s.rec != nil {
		s.rec.HostRead(a, 8)
	}
	s.sanRead(a, 8)
	return s.Mem.Int64(a)
}

// StoreI64 writes an int64.
func (s *Session) StoreI64(a memspace.Addr, v int64) {
	if s.rec != nil {
		s.rec.HostWrite(a, 8)
	}
	s.sanWrite(a, 8)
	s.Mem.SetInt64(a, v)
}

// LoadI32 reads an int32.
func (s *Session) LoadI32(a memspace.Addr) int32 {
	if s.rec != nil {
		s.rec.HostRead(a, 4)
	}
	s.sanRead(a, 4)
	return s.Mem.Int32(a)
}

// StoreI32 writes an int32.
func (s *Session) StoreI32(a memspace.Addr, v int32) {
	if s.rec != nil {
		s.rec.HostWrite(a, 4)
	}
	s.sanWrite(a, 4)
	s.Mem.SetInt32(a, v)
}

// ReadRangeHost annotates a bulk host read (memcpy-style host code).
func (s *Session) ReadRangeHost(a memspace.Addr, n int64) {
	if s.rec != nil {
		s.rec.HostReadRange(a, n)
	}
	s.sanReadRange(a, n)
}

// WriteRangeHost annotates a bulk host write.
func (s *Session) WriteRangeHost(a memspace.Addr, n int64) {
	if s.rec != nil {
		s.rec.HostWriteRange(a, n)
	}
	s.sanWriteRange(a, n)
}

// --- typed allocation helpers (TypeART host instrumentation) --------------

func (s *Session) track(a memspace.Addr, id typeart.TypeID, count int64, kind memspace.Kind) {
	if s.rec != nil {
		s.rec.TypedAlloc(a, id, count, kind)
	}
	if s.TypeArt == nil {
		return
	}
	// CUDA allocations were already tracked (untyped) by CuSan's
	// allocation callback; refine them. Host allocations are fresh.
	if _, _, ok := s.TypeArt.Lookup(a); ok {
		_ = s.TypeArt.Retype(a, id, count)
		return
	}
	_ = s.TypeArt.Track(a, id, count, kind)
}

// HostAllocF64 allocates a pageable host float64 array (malloc analog).
func (s *Session) HostAllocF64(count int64) memspace.Addr {
	a := s.Mem.Alloc(count*8, memspace.KindHostPageable)
	s.track(a, typeart.TypeFloat64, count, memspace.KindHostPageable)
	return a
}

// HostAllocI32 allocates a pageable host int32 array.
func (s *Session) HostAllocI32(count int64) memspace.Addr {
	a := s.Mem.Alloc(count*4, memspace.KindHostPageable)
	s.track(a, typeart.TypeInt32, count, memspace.KindHostPageable)
	return a
}

// CudaMallocF64 allocates a device float64 array (cudaMalloc + typed
// view).
func (s *Session) CudaMallocF64(count int64) (memspace.Addr, error) {
	a, err := s.Dev.Malloc(count * 8)
	if err != nil {
		return 0, err
	}
	s.track(a, typeart.TypeFloat64, count, memspace.KindDevice)
	return a, nil
}

// CudaMallocI32 allocates a device int32 array.
func (s *Session) CudaMallocI32(count int64) (memspace.Addr, error) {
	a, err := s.Dev.Malloc(count * 4)
	if err != nil {
		return 0, err
	}
	s.track(a, typeart.TypeInt32, count, memspace.KindDevice)
	return a, nil
}

// PinnedAllocF64 allocates a pinned host float64 array (cudaHostAlloc).
func (s *Session) PinnedAllocF64(count int64) (memspace.Addr, error) {
	a, err := s.Dev.HostAlloc(count * 8)
	if err != nil {
		return 0, err
	}
	s.track(a, typeart.TypeFloat64, count, memspace.KindHostPinned)
	return a, nil
}

// ManagedAllocF64 allocates a managed float64 array (cudaMallocManaged).
func (s *Session) ManagedAllocF64(count int64) (memspace.Addr, error) {
	a, err := s.Dev.MallocManaged(count * 8)
	if err != nil {
		return 0, err
	}
	s.track(a, typeart.TypeFloat64, count, memspace.KindManaged)
	return a, nil
}

// --- results ---------------------------------------------------------------

// RankResult gathers one rank's measurements after the app returned.
type RankResult struct {
	Rank    int
	Err     error
	Races   int64
	Reports []*tsan.Report
	Issues  []*must.Issue

	// Degraded is non-nil when the rank's checker crashed and the crash
	// was contained: the rank finished the run as Vanilla from the trip
	// point on, and this diagnostic says where and why.
	Degraded *Degradation
	// Injected lists the faults the injection plan fired on this rank,
	// in firing order. Each carries the (seed, site, occurrence) triple
	// that replays it.
	Injected []*faults.Fault

	TSanStats   tsan.Stats
	CudaCtrs    cusan.Counters
	MPIStats    mpi.Stats
	MustStats   must.Stats
	AppBytes    int64 // live simulated allocation payload at finalize
	PeakBytes   int64
	ShadowBytes int64
}

// ModeledRSS is the deterministic RSS analog used for the memory
// overhead experiment (Fig. 11): application payload plus tool shadow
// state at MPI_Finalize time.
func (r *RankResult) ModeledRSS() int64 {
	return r.AppBytes + r.ShadowBytes
}

// Result is the whole job's outcome.
type Result struct {
	Flavor Flavor
	Ranks  []RankResult
}

// FirstError returns the first rank error, if any.
func (r *Result) FirstError() error {
	for i := range r.Ranks {
		if err := r.Ranks[i].Err; err != nil {
			return fmt.Errorf("rank %d: %w", r.Ranks[i].Rank, err)
		}
	}
	return nil
}

// TotalRaces sums race reports across ranks.
func (r *Result) TotalRaces() int64 {
	var n int64
	for i := range r.Ranks {
		n += r.Ranks[i].Races
	}
	return n
}

// TotalIssues sums MUST findings across ranks.
func (r *Result) TotalIssues() int64 {
	var n int64
	for i := range r.Ranks {
		n += int64(len(r.Ranks[i].Issues))
	}
	return n
}

// emptyModule stands in for a job without device code.
var emptyModule = sync.OnceValue(kir.NewModule)

// Run builds the instrumented job and executes app on every rank
// concurrently (mpirun analog). The app's Comm is finalized
// automatically after app returns.
func Run(cfg Config, app func(s *Session) error) (*Result, error) {
	ranks := cfg.Ranks
	if ranks <= 0 {
		ranks = 2
	}
	mod := cfg.Module
	if mod == nil {
		mod = emptyModule()
	}
	prog, err := cuda.Compile(mod)
	if err != nil {
		return nil, fmt.Errorf("core: compile: %w", err)
	}
	world := mpi.NewWorld(ranks)
	if cfg.Sched != nil {
		world.SetController(cfg.Sched)
	}
	if cfg.MaxSteps > 0 {
		world.SetOpBudget(cfg.MaxSteps)
	}
	if cfg.Ctx != nil {
		// Watchdog: a cancelled context tears the world down so blocked
		// ranks unblock; the monitor exits once every rank returned.
		stop := make(chan struct{})
		defer close(stop)
		go func() {
			select {
			case <-cfg.Ctx.Done():
				world.Cancel(context.Cause(cfg.Ctx))
			case <-stop:
			}
		}()
	}
	sessions := make([]*Session, ranks)
	for i := 0; i < ranks; i++ {
		s, err := newSession(cfg, prog, i, world)
		if err != nil {
			return nil, err
		}
		sessions[i] = s
	}
	res := &Result{Flavor: cfg.Flavor, Ranks: make([]RankResult, ranks)}
	var wg sync.WaitGroup
	for i := 0; i < ranks; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s := sessions[i]
			rr := &res.Ranks[i]
			rr.Rank = i
			func() {
				defer func() {
					if p := recover(); p != nil {
						rr.Err = fmt.Errorf("rank %d panicked: %v", i, p)
					}
				}()
				rr.Err = app(s)
			}()
			if rr.Err == nil {
				if f := s.Mem.AccessFault(); f != nil {
					rr.Err = fmt.Errorf("rank %d: %w", i, f)
				}
			}
			if rr.Err != nil {
				// A dead rank can never meet its peers again; abort the
				// job so ranks blocked in MPI unblock with ErrAborted
				// instead of deadlocking (MPI_Abort-on-error semantics).
				world.Abort(i, rr.Err)
			}
			s.Dev.Close() // drains async-mode executors; eager no-op
			s.Comm.Finalize()
			if cfg.Sched != nil {
				// The rank is done for good: quiescence no longer waits on
				// it (other ranks may still need grants to finish).
				cfg.Sched.Finish(i)
			}
			if s.rec != nil {
				if err := s.rec.Flush(); err != nil && rr.Err == nil {
					rr.Err = fmt.Errorf("rank %d trace: %w", i, err)
				}
			}
			rr.MPIStats = s.Comm.Stats()
			rr.AppBytes = s.Mem.LiveBytes()
			rr.PeakBytes = s.Mem.PeakBytes()
			rr.Degraded = s.degrade.degradation()
			rr.Injected = s.inj.Fired()
			if s.San != nil {
				rr.Races = s.San.RaceCount()
				rr.Reports = s.San.Reports()
				rr.TSanStats = s.San.Stats()
				rr.ShadowBytes = s.San.ShadowBytes()
			}
			if s.Cusan != nil {
				rr.CudaCtrs = s.Cusan.Counters()
			}
			if s.Must != nil {
				rr.Issues = s.Must.Issues()
				rr.MustStats = s.Must.Stats()
			}
		}(i)
	}
	wg.Wait()
	return res, nil
}
