// Package mpi is an in-process, CUDA-aware MPI simulation: ranks are
// goroutines over their own simulated address spaces, exchanging messages
// through a matching engine with MPI point-to-point semantics (source/tag
// matching with wildcards, non-overtaking order), non-blocking requests,
// and the collectives the mini-apps need.
//
// CUDA-awareness follows the UVA design the paper describes (§III-D): a
// buffer argument is just an address, and the library internally
// distinguishes host from device memory by the pointer's memory kind —
// device pointers are communicated directly, no staging through host
// buffers is required of the user.
//
// The Hooks interface is the PMPI-style interception layer MUST installs
// (paper §II-B): every call reports its buffer, datatype, and request
// arguments before/after executing.
package mpi

import (
	"errors"
	"fmt"
	"sync"

	"cusango/internal/faults"
	"cusango/internal/memspace"
	"cusango/internal/sched"
	"cusango/internal/typeart"
)

// Wildcards for Recv/Irecv source and tag matching.
const (
	AnySource = -1
	AnyTag    = -1
)

// Sentinel errors.
var (
	// ErrRank reports an out-of-range rank argument.
	ErrRank = errors.New("mpi: invalid rank")
	// ErrCount reports a negative element count.
	ErrCount = errors.New("mpi: invalid count")
	// ErrTruncate reports a received message longer than the posted
	// buffer (MPI_ERR_TRUNCATE).
	ErrTruncate = errors.New("mpi: message truncated")
	// ErrRequest reports misuse of a request (double wait, nil request).
	ErrRequest = errors.New("mpi: invalid request")
	// ErrCollectiveMismatch reports ranks disagreeing on the collective
	// operation being performed.
	ErrCollectiveMismatch = errors.New("mpi: collective call mismatch across ranks")
	// ErrBuffer reports a buffer range outside any live allocation.
	ErrBuffer = errors.New("mpi: invalid buffer")
	// ErrAborted reports that the job was aborted (a rank died or called
	// the MPI_Abort analog); pending and future calls on every rank fail
	// with it instead of deadlocking.
	ErrAborted = errors.New("mpi: job aborted")
	// ErrStepBudget reports that a rank exceeded the job's logical step
	// budget (SetOpBudget): it started more full MPI operations than the
	// supervisor allows. Each rank's operation sequence is its program
	// order, so the budget verdict is deterministic — no wall clock.
	ErrStepBudget = errors.New("mpi: step budget exceeded")
)

// Datatype describes an MPI basic datatype.
type Datatype struct {
	Name string
	Size int64
	// TypeartID is the corresponding TypeART type for MUST's datatype
	// compatibility check.
	TypeartID typeart.TypeID
}

// Predefined datatypes.
var (
	Byte    = Datatype{Name: "MPI_BYTE", Size: 1, TypeartID: typeart.TypeUint8}
	Int32   = Datatype{Name: "MPI_INT", Size: 4, TypeartID: typeart.TypeInt32}
	Int64   = Datatype{Name: "MPI_LONG_LONG", Size: 8, TypeartID: typeart.TypeInt64}
	Float32 = Datatype{Name: "MPI_FLOAT", Size: 4, TypeartID: typeart.TypeFloat32}
	Float64 = Datatype{Name: "MPI_DOUBLE", Size: 8, TypeartID: typeart.TypeFloat64}
)

// Op is a reduction operator.
type Op uint8

// Reduction operators.
const (
	OpSum Op = iota
	OpMax
	OpMin
	OpProd
)

func (o Op) String() string {
	return [...]string{"MPI_SUM", "MPI_MAX", "MPI_MIN", "MPI_PROD"}[o]
}

// Status describes a completed receive.
type Status struct {
	Source int
	Tag    int
	// Count is the received element count.
	Count int
}

// Stats counts library-level events per rank.
type Stats struct {
	Sends, Recvs      int64
	Isends, Irecvs    int64
	Waits             int64
	Collectives       int64
	BytesSent         int64
	BytesRecv         int64
	DeviceBufferCalls int64 // calls whose buffer was device or managed
	HostBufferCalls   int64
}

// Hooks is the interception interface MUST implements. All callbacks run
// on the calling rank's goroutine.
type Hooks interface {
	PreSend(buf memspace.Addr, count int, dt Datatype, dest, tag int)
	PostSend(buf memspace.Addr, count int, dt Datatype, dest, tag int)
	PreRecv(buf memspace.Addr, count int, dt Datatype, src, tag int)
	PostRecv(buf memspace.Addr, count int, dt Datatype, st Status)
	PreIsend(buf memspace.Addr, count int, dt Datatype, dest, tag int, req *Request)
	PreIrecv(buf memspace.Addr, count int, dt Datatype, src, tag int, req *Request)
	PreWait(req *Request)
	PostWait(req *Request, st Status)
	// PreCollective reports a collective with its local read buffer
	// (0/empty when none) and write buffer (likewise); PostCollective
	// fires after local completion.
	PreCollective(name string, read memspace.Addr, readBytes int64, write memspace.Addr, writeBytes int64)
	PostCollective(name string, read memspace.Addr, readBytes int64, write memspace.Addr, writeBytes int64)
	PreFinalize()
}

// BaseHooks implements Hooks with no-ops; embed it for partial
// implementations.
type BaseHooks struct{}

// PreSend implements Hooks.
func (BaseHooks) PreSend(memspace.Addr, int, Datatype, int, int) {}

// PostSend implements Hooks.
func (BaseHooks) PostSend(memspace.Addr, int, Datatype, int, int) {}

// PreRecv implements Hooks.
func (BaseHooks) PreRecv(memspace.Addr, int, Datatype, int, int) {}

// PostRecv implements Hooks.
func (BaseHooks) PostRecv(memspace.Addr, int, Datatype, Status) {}

// PreIsend implements Hooks.
func (BaseHooks) PreIsend(memspace.Addr, int, Datatype, int, int, *Request) {}

// PreIrecv implements Hooks.
func (BaseHooks) PreIrecv(memspace.Addr, int, Datatype, int, int, *Request) {}

// PreWait implements Hooks.
func (BaseHooks) PreWait(*Request) {}

// PostWait implements Hooks.
func (BaseHooks) PostWait(*Request, Status) {}

// PreCollective implements Hooks.
func (BaseHooks) PreCollective(string, memspace.Addr, int64, memspace.Addr, int64) {}

// PostCollective implements Hooks.
func (BaseHooks) PostCollective(string, memspace.Addr, int64, memspace.Addr, int64) {}

// PreFinalize implements Hooks.
func (BaseHooks) PreFinalize() {}

var _ Hooks = BaseHooks{}

// packet is one in-flight message.
type packet struct {
	src, tag int
	dt       Datatype
	data     []byte
	// rendezvous, when non-nil, is closed once a receive matches the
	// packet (synchronous-mode send).
	rendezvous chan struct{}
}

// World is the communication universe of one simulated job.
type World struct {
	size  int
	boxes []*mailbox

	// ctl, when non-nil, virtualizes every completion choice as a
	// decision point (see SetController and internal/sched).
	ctl *sched.Controller

	collMu sync.Mutex
	colls  map[int64]*collOp

	// abort plane: aborted closes once when any rank aborts the job;
	// abortErr is written before the close and immutable afterwards.
	// The per-rank gone channels record *which* ranks can never act
	// again — they died (first death also aborts the job, but later
	// deaths are still recorded) or finalized cleanly. An operation
	// blocked after an abort fails only once the ranks whose
	// participation it still needs are provably gone, so whether it
	// errors or completes is a function of the fault plan, never of how
	// fast an unrelated rank's death became visible. goneGen is a
	// broadcast edge: it is closed and replaced on every recorded
	// departure (and on a stuck-schedule teardown), waking blocked
	// operations to re-evaluate their impossibility predicate.
	abortMu  sync.Mutex
	aborted  chan struct{}
	abortErr error
	goneCh   []chan struct{}
	goneGen  chan struct{}
	tearDown bool // aborted without a rank death (deadlocked schedule)

	// opBudget > 0 caps the number of full MPI operations each rank may
	// start (the uncontrolled-run analog of the controller's step
	// budget). Set before ranks communicate; immutable afterwards.
	opBudget int64
}

// NewWorld creates a world for size ranks.
func NewWorld(size int) *World {
	if size <= 0 {
		panic("mpi: world size must be positive")
	}
	w := &World{size: size, colls: make(map[int64]*collOp), aborted: make(chan struct{}),
		goneGen: make(chan struct{})}
	for i := 0; i < size; i++ {
		w.boxes = append(w.boxes, newMailbox())
		w.goneCh = append(w.goneCh, make(chan struct{}))
	}
	return w
}

// Size returns the number of ranks.
func (w *World) Size() int { return w.size }

// Abort marks the job aborted on behalf of rank (the MPI_Abort analog,
// also used when a rank's application code dies). Every rank blocked in
// a matching or collective call that can no longer complete unblocks
// with ErrAborted, and future blocking calls and polls fail the same
// way once their operation is provably dead. Operations that can still
// complete — buffered sends, receives matched by messages the dead rank
// delivered before dying — are allowed to finish first: completion
// always wins over a concurrent abort, which is what makes a faulted
// run's behaviour a pure function of the fault plan rather than of
// goroutine scheduling (the campaign scheduler's byte-identical-report
// guarantee relies on this). The first abort wins; later ones are
// no-ops.
func (w *World) Abort(rank int, cause error) {
	w.abortMu.Lock()
	defer w.abortMu.Unlock()
	// Record this rank's departure even if the job is already aborted:
	// impossibility predicates need to know exactly which ranks can no
	// longer act. Everything the rank delivered or contributed
	// happens-before this close (its MPI activity and its Abort run on
	// one goroutine).
	w.markGoneLocked(rank)
	select {
	case <-w.aborted:
		return
	default:
	}
	if cause != nil {
		w.abortErr = fmt.Errorf("%w by rank %d: %w", ErrAborted, rank, cause)
	} else {
		w.abortErr = fmt.Errorf("%w by rank %d", ErrAborted, rank)
	}
	if w.ctl != nil {
		// Release settlers and mark channel-parked ranks runnable before
		// the physical unblock below, so the controller never grants into
		// a tearing-down world.
		w.ctl.AbortAll()
	}
	close(w.aborted)
}

// SetOpBudget caps the number of full MPI operations each rank may
// start (0 = unlimited). A rank that exceeds the cap fails its next
// operation with ErrStepBudget and aborts the job; because each rank's
// operation sequence is its own program order, which operation trips is
// a pure function of the program, byte-identical across workers and
// repeats. Call before any rank communicates.
func (w *World) SetOpBudget(n int64) { w.opBudget = n }

// Cancel tears the job down from outside (supervision: a watchdog
// deadline or context cancellation), without attributing the abort to
// any rank. Every blocked or polling operation fails with an abort
// error wrapping cause; completion in flight still wins. The first
// abort wins; a Cancel after a rank death is a no-op.
func (w *World) Cancel(cause error) {
	w.abortMu.Lock()
	defer w.abortMu.Unlock()
	w.cancelLocked(cause)
}

// cancelLocked is the deathless-teardown core shared by Cancel and the
// stuck/budget hooks. Caller holds abortMu.
func (w *World) cancelLocked(cause error) {
	select {
	case <-w.aborted:
		return
	default:
	}
	if cause != nil {
		w.abortErr = fmt.Errorf("%w: %w", ErrAborted, cause)
	} else {
		w.abortErr = fmt.Errorf("%w: cancelled", ErrAborted)
	}
	// No rank died: flag the teardown and wake every blocked operation
	// through the death edge so impossibility predicates are bypassed.
	w.tearDown = true
	close(w.goneGen)
	w.goneGen = make(chan struct{})
	if w.ctl != nil {
		w.ctl.AbortAll()
	}
	close(w.aborted)
}

// Aborted returns the job's abort error, or nil while it is healthy.
func (w *World) Aborted() error {
	select {
	case <-w.aborted:
		return w.abortErr
	default:
		return nil
	}
}

// abortError returns the job abort error under the lock. Callers hold a
// proof their operation can never complete — usually a recorded death
// or the teardown flag, which guarantee the error is set. The fallback
// covers the one deathless corner (a single-rank wildcard receive with
// nothing in flight is impossible without anyone dying).
func (w *World) abortError() error {
	w.abortMu.Lock()
	defer w.abortMu.Unlock()
	if w.abortErr == nil {
		return fmt.Errorf("%w: operation can never complete", ErrAborted)
	}
	return w.abortErr
}

// markGoneLocked records that rank can never act again (death or clean
// finalize) and wakes blocked operations to re-evaluate. Caller holds
// abortMu.
func (w *World) markGoneLocked(rank int) {
	if rank < 0 || rank >= w.size {
		return
	}
	select {
	case <-w.goneCh[rank]:
		return
	default:
	}
	close(w.goneCh[rank])
	close(w.goneGen)
	w.goneGen = make(chan struct{})
}

// goneWatch returns the current departure-broadcast edge: it is closed
// on the next recorded departure (or teardown). Departures recorded
// before the snapshot are already visible through rankGone.
func (w *World) goneWatch() <-chan struct{} {
	w.abortMu.Lock()
	defer w.abortMu.Unlock()
	return w.goneGen
}

// rankGone reports whether rank can never act again: it died (aborted
// or errored out) or finalized cleanly. Everything the rank delivered,
// posted, or contributed happens-before this flag.
func (w *World) rankGone(rank int) bool {
	select {
	case <-w.goneCh[rank]:
		return true
	default:
		return false
	}
}

// othersGone reports whether every rank except self is gone — the
// impossibility condition for wildcard matching (self cannot deliver to
// itself while it is blocked waiting).
func (w *World) othersGone(self int) bool {
	for r := 0; r < w.size; r++ {
		if r != self && !w.rankGone(r) {
			return false
		}
	}
	return true
}

// tornDown reports whether the job was aborted without a rank death
// (a deadlocked schedule being dismantled): every blocked operation
// must fail regardless of its impossibility predicate.
func (w *World) tornDown() bool {
	w.abortMu.Lock()
	defer w.abortMu.Unlock()
	return w.tearDown
}

// AttachRank binds rank's address space and interception hooks, returning
// its communicator (MPI_COMM_WORLD view). hooks may be nil.
func (w *World) AttachRank(rank int, mem *memspace.Memory, hooks Hooks) (*Comm, error) {
	if rank < 0 || rank >= w.size {
		return nil, fmt.Errorf("%w: %d of %d", ErrRank, rank, w.size)
	}
	if hooks == nil {
		hooks = BaseHooks{}
	}
	return &Comm{world: w, rank: rank, mem: mem, hooks: hooks}, nil
}

// Comm is one rank's view of the world (MPI_COMM_WORLD).
type Comm struct {
	world *World
	rank  int
	mem   *memspace.Memory
	hooks Hooks
	inj   *faults.Injector

	collSeq   int64
	stats     Stats
	finalized bool
	// ops counts full MPI operations started, against world.opBudget.
	ops int64
	// died is the error of this rank's own injected abort; every later
	// operation of the rank fails with it (see enter).
	died error
	// live tracks incomplete requests for MUST's leak check.
	live map[*Request]struct{}
}

// Rank returns the caller's rank.
func (c *Comm) Rank() int { return c.rank }

// Size returns the communicator size.
func (c *Comm) Size() int { return c.world.size }

// Stats returns a snapshot of the per-rank counters.
func (c *Comm) Stats() Stats { return c.stats }

// SetHooks replaces the interception hooks (toolchain link step).
func (c *Comm) SetHooks(h Hooks) {
	if h == nil {
		h = BaseHooks{}
	}
	c.hooks = h
}

// SetInjector installs a deterministic fault injector for this rank's
// MPI calls (nil uninstalls). See internal/faults.
func (c *Comm) SetInjector(in *faults.Injector) { c.inj = in }

// enter runs the per-call bookkeeping shared by every full MPI
// operation: the rank-abort fault site can fire, killing the job as if
// this rank died at this call. There is deliberately no global
// "aborted?" fast-fail here — whether an unrelated rank's death has
// become visible at this instant is a wall-clock race, and failing on
// it would make a rank's progress (and therefore its fault-site
// occurrence counters and race verdicts) scheduling-dependent. A job
// abort is instead observed at completion points (waitAbortable, Test,
// Iprobe), where "this operation can never complete" is a deterministic
// property of the fault plan: the specific ranks whose participation
// the operation still needs are dead (see waitAbortable).
//
// A rank that aborted is dead: each of its later operations fails with
// the same error before it can deliver, post or contribute anything.
// Otherwise an application that ignores the abort error would keep
// communicating after its death flag, and whether a peer matched such a
// message before seeing that death would be a wall-clock race.
func (c *Comm) enter() error {
	if c.died != nil {
		return c.died
	}
	if f := c.inj.Fire(faults.MPIRankAbort); f != nil {
		c.world.Abort(c.rank, f)
		c.died = fmt.Errorf("rank %d aborted: %w", c.rank, f)
		return c.died
	}
	if f := c.inj.Fire(faults.SchedStall); f != nil {
		// The rank wedges at this call, modelling a hung process: it
		// unblocks only when the job is torn down from outside (watchdog
		// Cancel, a step budget, or another rank's abort). Under a
		// controller the park is registered so quiescence detection — and
		// with it the logical step budget — still works.
		if ctl := c.world.ctl; ctl != nil {
			ctl.Block(c.rank, c.world.aborted)
		}
		<-c.world.aborted
		return fmt.Errorf("rank %d stalled: %w (%w)", c.rank, f, c.world.abortError())
	}
	if b := c.world.opBudget; b > 0 {
		c.ops++
		if c.ops > b {
			err := fmt.Errorf("%w: rank %d started more than %d MPI operations",
				ErrStepBudget, c.rank, b)
			c.world.Abort(c.rank, err)
			return err
		}
	}
	return nil
}

// waitAbortable blocks on ch, unblocking with the abort error only once
// impossible reports that ch can provably never close. Completion
// always wins over an abort, and a death that does NOT make the
// operation impossible (a third rank died but the rank this operation
// needs is still alive) keeps the wait alive — in an N-rank job,
// failing on an unrelated rank's death would make the outcome a
// wall-clock race between that death's visibility and the needed rank's
// progress. Soundness of the predicate rests on the per-rank ordering
// edge: everything a dead rank delivered, posted, or contributed
// happens-before its death flag (its MPI activity and its World.Abort
// run on one goroutine), so when the needed rank's death is visible and
// ch is still not ready, the completion is provably never coming. The
// impossible callback must be a monotone function of the death flags
// (and any state the dying ranks mutated before dying) so re-evaluation
// on each death edge converges.
func (c *Comm) waitAbortable(ch chan struct{}, impossible func() bool) error {
	select {
	case <-ch:
		return nil
	default:
	}
	if ctl := c.world.ctl; ctl != nil {
		// Park under the controller; the signalling side re-marks this
		// rank runnable (Wake) before closing ch, so the controller never
		// sees a false quiescence. If ch was signalled already, Block is a
		// no-op and the select falls straight through.
		ctl.Block(c.rank, ch)
	}
	for {
		gen := c.world.goneWatch()
		select {
		case <-ch:
			return nil
		default:
		}
		if c.world.tornDown() || impossible() {
			select {
			case <-ch:
				return nil
			default:
			}
			return c.world.abortError()
		}
		select {
		case <-ch:
			return nil
		case <-gen:
			// A death (or teardown) was recorded; loop to re-evaluate.
		}
	}
}

// recvImpossible is the impossibility predicate of a posted receive:
// the source can never deliver a match. For a specific source that is
// its departure (death or finalize); a wildcard receive needs every
// other rank gone.
func (c *Comm) recvImpossible(src int) func() bool {
	return func() bool {
		if src == AnySource {
			return c.world.othersGone(c.rank)
		}
		return c.world.rankGone(src)
	}
}

// PendingRequests returns the number of incomplete requests (requests
// never waited on), for finalize-time leak checks.
func (c *Comm) PendingRequests() int { return len(c.live) }

// Finalize runs finalize-time hooks. Further communication is a bug.
func (c *Comm) Finalize() {
	if c.finalized {
		return
	}
	c.hooks.PreFinalize()
	c.finalized = true
	// The rank can never act again: record its departure so peers
	// blocked on a message or collective only this rank could have
	// provided fail deterministically instead of waiting forever.
	// Everything the rank delivered happens-before this mark.
	c.world.abortMu.Lock()
	c.world.markGoneLocked(c.rank)
	c.world.abortMu.Unlock()
}

// Finalized reports whether Finalize ran.
func (c *Comm) Finalized() bool { return c.finalized }

func (c *Comm) countBufferKind(a memspace.Addr) {
	switch memspace.KindOf(a) {
	case memspace.KindDevice, memspace.KindManaged:
		c.stats.DeviceBufferCalls++
	default:
		c.stats.HostBufferCalls++
	}
}

func (c *Comm) checkPeer(rank int, wildcardOK bool) error {
	if wildcardOK && rank == AnySource {
		return nil
	}
	if rank < 0 || rank >= c.world.size {
		return fmt.Errorf("%w: peer %d of %d", ErrRank, rank, c.world.size)
	}
	return nil
}

// readBuf copies count elements out of the caller's memory.
func (c *Comm) readBuf(buf memspace.Addr, count int, dt Datatype) ([]byte, error) {
	n := int64(count) * dt.Size
	src, err := c.mem.Bytes(buf, n)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBuffer, err)
	}
	out := make([]byte, n)
	copy(out, src)
	return out, nil
}

// writeBuf copies data into the caller's memory.
func (c *Comm) writeBuf(buf memspace.Addr, data []byte) error {
	dst, err := c.mem.Bytes(buf, int64(len(data)))
	if err != nil {
		return fmt.Errorf("%w: %v", ErrBuffer, err)
	}
	copy(dst, data)
	return nil
}
