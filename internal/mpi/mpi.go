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
	"sync/atomic"

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
	// FruitlessPolls counts Test/Iprobe calls that reported "not yet"
	// on a request or envelope that could not complete; ParkedPolls
	// counts those that parked instead of spinning (see Comm.poll).
	// Both depend on timing, unlike the counters above.
	FruitlessPolls, ParkedPolls int64
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

	// Abort and departure plane, under mu. aborted closes once when the
	// job aborts; abortErr is written before the close and immutable
	// afterwards. goneCh[r] closes when rank r can never act again: it
	// died, finalized, or returned. goneGen is a broadcast edge, closed
	// and replaced on every recorded departure and on a teardown, that
	// wakes blocked operations to re-evaluate (see await). tearDown marks
	// an abort without a rank death (cancelled or stuck schedule).
	mu       sync.Mutex
	aborted  chan struct{}
	abortErr error
	goneCh   []chan struct{}
	goneGen  chan struct{}
	tearDown atomic.Bool

	// Park guard, under mu: waiting[r] marks rank r blocked or parked in
	// MPI, running counts ranks neither waiting nor gone, and release
	// (created when a poller parks) is closed when running reaches 0.
	waiting []bool
	running int
	release chan struct{}

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
		goneGen: make(chan struct{}), waiting: make([]bool, size), running: size}
	for i := 0; i < size; i++ {
		w.boxes = append(w.boxes, newMailbox())
		w.goneCh = append(w.goneCh, make(chan struct{}))
	}
	return w
}

// Size returns the number of ranks.
func (w *World) Size() int { return w.size }

// Abort marks the job aborted on behalf of rank (the MPI_Abort analog,
// also used when a rank's application code dies) and records rank's
// departure. Operations that can still complete are allowed to finish;
// the rest fail with ErrAborted once they provably cannot (see await).
// The first abort's cause wins; later aborts only record departures.
func (w *World) Abort(rank int, cause error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.markGoneLocked(rank)
	if closed(w.aborted) {
		return
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
	w.mu.Lock()
	defer w.mu.Unlock()
	w.cancelLocked(cause)
}

// cancelLocked is the deathless-teardown core shared by Cancel and the
// stuck/budget hooks. Caller holds mu.
func (w *World) cancelLocked(cause error) {
	if closed(w.aborted) {
		return
	}
	if cause != nil {
		w.abortErr = fmt.Errorf("%w: %w", ErrAborted, cause)
	} else {
		w.abortErr = fmt.Errorf("%w: cancelled", ErrAborted)
	}
	// No rank died: flag the teardown and wake every blocked operation
	// through the departure edge so impossibility predicates are bypassed.
	w.tearDown.Store(true)
	close(w.goneGen)
	w.goneGen = make(chan struct{})
	if w.ctl != nil {
		w.ctl.AbortAll()
	}
	close(w.aborted)
}

// Aborted returns the job's abort error, or nil while it is healthy.
func (w *World) Aborted() error {
	if closed(w.aborted) {
		return w.abortErr
	}
	return nil
}

// abortError returns the job abort error under the lock. Callers hold a
// proof their operation can never complete — usually a recorded death
// or the teardown flag, which guarantee the error is set. The fallback
// covers the deathless corners: a rank that returned without aborting,
// or a single-rank wildcard receive with nothing in flight.
func (w *World) abortError() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.abortErr == nil {
		return fmt.Errorf("%w: operation can never complete", ErrAborted)
	}
	return w.abortErr
}

// depart records that rank can never act again (clean finalize, or its
// body returned).
func (w *World) depart(rank int) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.markGoneLocked(rank)
}

// markGoneLocked records rank's departure and wakes blocked operations
// to re-evaluate. Caller holds mu.
func (w *World) markGoneLocked(rank int) {
	if rank < 0 || rank >= w.size || closed(w.goneCh[rank]) {
		return
	}
	close(w.goneCh[rank])
	if !w.waiting[rank] {
		w.running--
	}
	close(w.goneGen)
	w.goneGen = make(chan struct{})
}

// goneWatch returns the current departure-broadcast edge: it is closed
// on the next recorded departure (or teardown). Departures recorded
// before the snapshot are already visible through rankGone.
func (w *World) goneWatch() chan struct{} {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.goneGen
}

// rankGone reports whether rank can never act again: it departed, or
// the job was torn down, which counts every rank gone. Everything the
// rank delivered, posted, or contributed happens-before its departure.
func (w *World) rankGone(rank int) bool { return w.tearDown.Load() || closed(w.goneCh[rank]) }

// closed reports whether ch is closed, without blocking.
func closed(ch chan struct{}) bool {
	select {
	case <-ch:
		return true
	default:
		return false
	}
}

// peerGone is the impossibility predicate of every point-to-point
// operation of rank self on peer: a specific peer is gone, or, for
// AnySource, every rank but self is (self cannot deliver to itself while
// it waits).
func (w *World) peerGone(self, peer int) bool {
	if peer != AnySource {
		return w.rankGone(peer)
	}
	for r := 0; r < w.size; r++ {
		if r != self && !w.rankGone(r) {
			return false
		}
	}
	return true
}

// setWaitingLocked marks rank blocked or parked in MPI (on) or running
// again. When the last running rank blocks, parked pollers are released:
// no rank is left to change what they poll, so their "not yet" must
// reach the application, whose next step may be the one its peers wait
// for (a bounded poll loop's nudge). Caller holds mu.
func (w *World) setWaitingLocked(rank int, on bool) {
	if w.waiting[rank] == on {
		return
	}
	w.waiting[rank] = on
	if closed(w.goneCh[rank]) {
		return
	}
	if !on {
		w.running++
		return
	}
	if w.running--; w.running == 0 {
		w.releaseLocked()
	}
}

// releaseLocked wakes every parked poller. Caller holds mu.
func (w *World) releaseLocked() {
	if w.release != nil {
		close(w.release)
		w.release = nil
	}
}

// await blocks rank until done closes or the operation provably never
// completes, returning nil or the job's abort error.
//
// The rule, for every blocking and polling operation: an operation fails
// only once the ranks whose participation it still needs are gone
// (impossible, a monotone function of rankGone and of state the
// departed ranks set before leaving). A job abort alone is not enough:
// whether an unrelated rank's death has become visible is a wall-clock
// race, and failing on it would make a rank's progress, fault-site
// numbering and verdicts scheduling-dependent. The proof is sound
// because everything a rank delivered, posted or contributed
// happens-before its departure (both run on its goroutine), and a rank
// whose injected abort fired stays dead (see enter). Completion always
// wins: done is re-checked before failing. Each departure re-evaluates
// impossible through goneGen.
//
// While it waits the rank counts as waiting for the park guard.
func (w *World) await(rank int, done chan struct{}, impossible func() bool) error {
	if closed(done) {
		return nil
	}
	if w.ctl != nil {
		// Park under the controller; the signalling side re-marks this
		// rank runnable (Wake) before closing done, so the controller
		// never sees a false quiescence.
		w.ctl.Block(rank, done)
	}
	w.mu.Lock()
	w.setWaitingLocked(rank, true)
	gen := w.goneGen
	w.mu.Unlock()
	defer func() {
		w.mu.Lock()
		w.setWaitingLocked(rank, false)
		w.mu.Unlock()
	}()
	for {
		if impossible() {
			if closed(done) {
				return nil
			}
			return w.abortError()
		}
		select {
		case <-done:
			return nil
		case <-gen:
			gen = w.goneWatch()
		}
	}
}

// park blocks rank's fruitless poller until its mailbox moves past
// epoch, a departure or teardown closes gen, or no other rank is left
// running. It reports whether it parked: it does not when the epoch
// already moved, or when every other rank is waiting or gone, in which
// case parked pollers are released too (a poller that cannot park is,
// for an instant, the last running rank blocking).
func (w *World) park(rank int, epoch uint64, gen chan struct{}) bool {
	now, changed := w.boxes[rank].watch()
	if now != epoch {
		return false
	}
	w.mu.Lock()
	others := w.running
	if !closed(w.goneCh[rank]) {
		others-- // the poller itself is running
	}
	if others == 0 {
		w.releaseLocked()
		w.mu.Unlock()
		return false
	}
	w.setWaitingLocked(rank, true)
	if w.release == nil {
		w.release = make(chan struct{})
	}
	release := w.release
	w.mu.Unlock()
	select {
	case <-changed:
	case <-gen:
	case <-release:
	}
	w.mu.Lock()
	w.setWaitingLocked(rank, false)
	w.mu.Unlock()
	return true
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
	// idleEpoch is the mailbox epoch of the last fruitless poll since
	// the last full operation (0 = none; epochs start at 1).
	idleEpoch uint64
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
// operation. The rank-abort fault site can fire, killing the job as if
// this rank died at this call; a rank that aborted stays dead, so each
// of its later operations fails with the same error before it can
// deliver, post or contribute anything. There is no global "aborted?"
// fast-fail: a job abort is observed where an operation waits (await)
// or polls, once the operation provably cannot complete. A full
// operation also ends any run of fruitless polls (see poll).
func (c *Comm) enter() error {
	c.idleEpoch = 0
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
		// Cancel, a step budget, or another rank's abort).
		c.world.await(c.rank, c.world.aborted, func() bool { return false })
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

// await blocks this rank on done under the world's rule (World.await),
// failing once peer is gone (see World.peerGone).
func (c *Comm) await(done chan struct{}, peer int) error {
	return c.world.await(c.rank, done, func() bool { return c.world.peerGone(c.rank, peer) })
}

// poll runs one Test/Iprobe check; ready reports whether the poll can
// succeed now. A poll is not a failure point: no fault site fires here,
// so how many fruitless polls a loop makes cannot shift fault-site
// numbering or verdicts (only Stats counts them). Until peer
// is provably gone a fruitless poll reports "not yet"; one at the
// mailbox epoch of the previous fruitless poll, with no full operation
// in between, first parks until something it could see changes
// (World.park) instead of spinning. Once peer is gone the poll fails —
// after one re-check, since completion wins.
func (c *Comm) poll(peer int, ready func() bool) (bool, error) {
	// Snapshot what the outcome depends on before checking it.
	epoch, gen := c.world.boxes[c.rank].epoch.Load(), c.world.goneWatch()
	if ready() {
		return true, nil
	}
	if !c.world.peerGone(c.rank, peer) {
		c.stats.FruitlessPolls++
		if c.idleEpoch != epoch {
			c.idleEpoch = epoch
		} else if c.world.park(c.rank, epoch, gen) {
			c.stats.ParkedPolls++
		}
		return false, nil
	}
	if ready() {
		return true, nil
	}
	return false, c.world.abortError()
}

// PendingRequests returns the number of incomplete requests (requests
// never waited on), for finalize-time leak checks.
func (c *Comm) PendingRequests() int { return len(c.live) }

// Finalize runs finalize-time hooks and records the rank's departure,
// so peers waiting on what only this rank could provide fail instead of
// waiting forever. Further communication is a bug.
func (c *Comm) Finalize() {
	if c.finalized {
		return
	}
	c.hooks.PreFinalize()
	c.finalized = true
	c.world.depart(c.rank)
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
