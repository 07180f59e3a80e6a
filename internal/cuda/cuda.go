// Package cuda simulates the CUDA runtime API surface that CuSan
// intercepts (paper §III): devices, streams with legacy default-stream
// semantics, events, kernel launches, memory management across the UVA
// kinds, and memory operations with their documented implicit
// synchronization behaviour.
//
// Execution is eager and deterministic: enqueuing an operation runs it
// immediately on the simulated device (per-stream FIFO order is thereby
// trivially preserved). Concurrency is modeled *logically* by the
// correctness tooling — CuSan maps streams to TSan fibers — exactly as a
// dynamic race detector observes one concrete interleaving while
// reasoning about all synchronization-free reorderings. A missing
// synchronization therefore never corrupts simulated data, but is still
// detected as a race.
//
// The Hooks interface is the compiler-instrumentation analog: the
// toolchain "links" a tool runtime (CuSan) by installing hooks, which
// receive the same arguments the paper's inserted callbacks carry
// (kernel args + access attributes, stream, event ids, memory movement
// attributes; §IV-B2).
package cuda

import (
	"errors"
	"fmt"
	"sync"

	"cusango/internal/faults"
	"cusango/internal/kaccess"
	"cusango/internal/kinterp"
	"cusango/internal/kir"
	"cusango/internal/memspace"
)

// Sentinel errors (cudaError analogs).
var (
	// ErrInvalidValue reports a bad argument (cudaErrorInvalidValue).
	ErrInvalidValue = errors.New("cuda: invalid value")
	// ErrInvalidHandle reports use of a destroyed or foreign stream or
	// event (cudaErrorInvalidResourceHandle).
	ErrInvalidHandle = errors.New("cuda: invalid resource handle")
	// ErrInvalidPointer reports a pointer outside any live allocation or
	// of the wrong memory kind for the operation.
	ErrInvalidPointer = errors.New("cuda: invalid device pointer")
	// ErrMemoryAllocation reports an exhausted device or host allocation
	// (cudaErrorMemoryAllocation).
	ErrMemoryAllocation = errors.New("cuda: out of memory")
	// ErrLaunchFailure reports a kernel that failed to launch
	// (cudaErrorLaunchFailure).
	ErrLaunchFailure = errors.New("cuda: kernel launch failure")
)

// Stream is a CUDA stream handle. The zero-id stream of a device is the
// legacy default stream.
type Stream struct {
	id          int
	nonBlocking bool
	destroyed   bool
	dev         *Device
}

// ID returns the stream's id; 0 is the default stream.
func (s *Stream) ID() int { return s.id }

// IsDefault reports whether s is the legacy default stream.
func (s *Stream) IsDefault() bool { return s.id == 0 }

// NonBlocking reports whether the stream was created with the
// non-blocking flag (exempt from legacy default-stream barriers).
func (s *Stream) NonBlocking() bool { return s.nonBlocking }

func (s *Stream) String() string {
	if s == nil || s.IsDefault() {
		return "default stream"
	}
	nb := ""
	if s.nonBlocking {
		nb = ", non-blocking"
	}
	return fmt.Sprintf("stream %d%s", s.id, nb)
}

// Event is a CUDA event handle.
type Event struct {
	id        int
	recorded  bool
	stream    *Stream // stream of the last record
	destroyed bool
	dev       *Device
	// asyncDone is the completion channel of the recorded marker
	// (async mode only).
	asyncDone <-chan struct{}
}

// ID returns the event's id.
func (e *Event) ID() int { return e.id }

// Recorded reports whether the event has been recorded at least once.
func (e *Event) Recorded() bool { return e.recorded }

// Stream returns the stream of the most recent record, or nil.
func (e *Event) Stream() *Stream { return e.stream }

// MemOp carries the memory-movement attributes a hook needs to decide
// synchronization behaviour (paper §III-B2, §IV-B2).
type MemOp struct {
	Dst, Src memspace.Addr // Src is 0 for memset
	Bytes    int64
	DstKind  memspace.Kind
	SrcKind  memspace.Kind
	Async    bool
	Stream   *Stream
	// SyncsHost is the semantics-table verdict: does this call block the
	// host until the operation (and, on the legacy default stream, prior
	// work) completes?
	SyncsHost bool
}

// KernelLaunch carries the instrumented launch callback arguments
// (paper Fig. 9): argument values, their access attributes from the
// device-code analysis, and the stream.
type KernelLaunch struct {
	Name   string
	Grid   kinterp.Dim3
	Block  kinterp.Dim3
	Args   []kinterp.Arg
	Params []kir.Param
	// Access and Params alias the shared compiled program: hooks must
	// not modify them.
	Access []kaccess.Access
	Stream *Stream
}

// Hooks is the tool-instrumentation interface. All callbacks run on the
// host goroutine at interception time, before the runtime performs the
// operation (allocation callbacks run after, since they need the
// address). Embed BaseHooks to implement a subset.
type Hooks interface {
	AllocDone(addr memspace.Addr, bytes int64, kind memspace.Kind)
	PreFree(addr memspace.Addr, kind memspace.Kind, syncsHost bool)
	StreamCreated(s *Stream)
	StreamDestroyed(s *Stream)
	EventCreated(e *Event)
	EventDestroyed(e *Event)
	PreEventRecord(e *Event, s *Stream)
	PreEventSynchronize(e *Event)
	PreEventQuery(e *Event)
	PreStreamWaitEvent(s *Stream, e *Event)
	PreStreamSynchronize(s *Stream)
	PreStreamQuery(s *Stream)
	PreDeviceSynchronize()
	PreKernelLaunch(l *KernelLaunch)
	PreMemcpy(op *MemOp)
	PreMemset(op *MemOp)
}

// BaseHooks implements Hooks with no-ops.
type BaseHooks struct{}

// AllocDone implements Hooks.
func (BaseHooks) AllocDone(memspace.Addr, int64, memspace.Kind) {}

// PreFree implements Hooks.
func (BaseHooks) PreFree(memspace.Addr, memspace.Kind, bool) {}

// StreamCreated implements Hooks.
func (BaseHooks) StreamCreated(*Stream) {}

// StreamDestroyed implements Hooks.
func (BaseHooks) StreamDestroyed(*Stream) {}

// EventCreated implements Hooks.
func (BaseHooks) EventCreated(*Event) {}

// EventDestroyed implements Hooks.
func (BaseHooks) EventDestroyed(*Event) {}

// PreEventRecord implements Hooks.
func (BaseHooks) PreEventRecord(*Event, *Stream) {}

// PreEventSynchronize implements Hooks.
func (BaseHooks) PreEventSynchronize(*Event) {}

// PreEventQuery implements Hooks.
func (BaseHooks) PreEventQuery(*Event) {}

// PreStreamWaitEvent implements Hooks.
func (BaseHooks) PreStreamWaitEvent(*Stream, *Event) {}

// PreStreamSynchronize implements Hooks.
func (BaseHooks) PreStreamSynchronize(*Stream) {}

// PreStreamQuery implements Hooks.
func (BaseHooks) PreStreamQuery(*Stream) {}

// PreDeviceSynchronize implements Hooks.
func (BaseHooks) PreDeviceSynchronize() {}

// PreKernelLaunch implements Hooks.
func (BaseHooks) PreKernelLaunch(*KernelLaunch) {}

// PreMemcpy implements Hooks.
func (BaseHooks) PreMemcpy(*MemOp) {}

// PreMemset implements Hooks.
func (BaseHooks) PreMemset(*MemOp) {}

var _ Hooks = BaseHooks{}

// Config tunes the simulated device.
type Config struct {
	// Interp configures the kernel interpreter (worker pool size etc).
	Interp kinterp.Config
	// AsyncStreams switches from eager to genuinely asynchronous stream
	// execution (see async.go). Devices in this mode must be Closed.
	AsyncStreams bool
	// Inject, when non-nil, perturbs the simulated runtime with
	// deterministic faults (allocation failures, launch failures, handle
	// invalidation, async-completion jitter). See internal/faults.
	Inject *faults.Injector
	// Yield, when non-nil, implements the logical delay step used by
	// injected completion jitter (n steps per jittered op). Nil means n
	// goroutine reschedules — wall-clock-independent in either case.
	Yield func(n int)
}

// Program is a kernel module compiled for the simulated device: verified,
// its kernel access analysis run (the device-code pass, paper Fig. 7
// step 2) and its interpreter tables built, once. It is read-only and
// shared by every device, rank and job that runs the module.
type Program struct {
	code     *kinterp.Program
	analysis *kaccess.Result
}

// Compile compiles mod once per module: every later call, from any
// goroutine, returns the same Program (or error). Compile seals mod
// (kir.Module.Seal), so the program cannot go stale, and keeps the
// program in mod (kir.Module.Memo), so it lives exactly as long as mod.
func Compile(mod *kir.Module) (*Program, error) {
	p, err := mod.Memo(func(m *kir.Module) (any, error) {
		code, err := kinterp.Compile(m)
		if err != nil {
			return nil, err
		}
		analysis, err := kaccess.Analyze(m)
		return &Program{code: code, analysis: analysis}, err
	})
	if err != nil {
		return nil, err
	}
	return p.(*Program), nil
}

// Analysis exposes the kernel access analysis (the serialized "kernel
// analysis data" of paper Fig. 7).
func (p *Program) Analysis() *kaccess.Result { return p.analysis }

// Device is one simulated GPU attached to a rank's address space, running
// a compiled program.
type Device struct {
	mem      *memspace.Memory
	eng      *kinterp.Engine
	analysis *kaccess.Result
	hooks    Hooks
	cfg      Config
	def      *Stream
	streams  []*Stream
	events   []*Event

	// async-mode state (see async.go).
	execs      map[int]*streamExec
	asyncErr   error
	asyncErrMu sync.Mutex
}

// NewDevice loads a compiled program onto a new device; only the
// per-device interpreter state is built here. hooks may be nil.
func NewDevice(mem *memspace.Memory, prog *Program, cfg Config, hooks Hooks) *Device {
	if hooks == nil {
		hooks = BaseHooks{}
	}
	d := &Device{
		mem: mem, eng: kinterp.New(prog.code, cfg.Interp), analysis: prog.analysis,
		hooks: hooks, cfg: cfg, execs: make(map[int]*streamExec),
	}
	d.def = &Stream{id: 0, dev: d}
	d.streams = []*Stream{d.def}
	return d
}

// SetHooks replaces the instrumentation hooks (used by the toolchain at
// "link" time). Passing nil uninstalls instrumentation.
func (d *Device) SetHooks(h Hooks) {
	if h == nil {
		h = BaseHooks{}
	}
	d.hooks = h
}

// Memory returns the device's address space.
func (d *Device) Memory() *memspace.Memory { return d.mem }

// Analysis exposes the kernel access analysis (the serialized "kernel
// analysis data" of paper Fig. 7).
func (d *Device) Analysis() *kaccess.Result { return d.analysis }

// DefaultStream returns the legacy default stream.
func (d *Device) DefaultStream() *Stream { return d.def }

// Streams returns all live streams, including the default stream.
func (d *Device) Streams() []*Stream {
	out := make([]*Stream, 0, len(d.streams))
	for _, s := range d.streams {
		if !s.destroyed {
			out = append(out, s)
		}
	}
	return out
}

func (d *Device) checkStream(s *Stream) (*Stream, error) {
	if s == nil {
		return d.def, nil
	}
	if s.dev != d {
		return nil, fmt.Errorf("%w: stream belongs to another device", ErrInvalidHandle)
	}
	if s.destroyed {
		return nil, fmt.Errorf("%w: stream %d destroyed", ErrInvalidHandle, s.id)
	}
	if !s.IsDefault() {
		if f := d.cfg.Inject.Fire(faults.CudaStreamHandle); f != nil {
			return nil, fmt.Errorf("%w: stream %d (%w)", ErrInvalidHandle, s.id, f)
		}
	}
	return s, nil
}

func (d *Device) checkEvent(e *Event) error {
	if e == nil || e.dev != d {
		return fmt.Errorf("%w: bad event", ErrInvalidHandle)
	}
	if e.destroyed {
		return fmt.Errorf("%w: event %d destroyed", ErrInvalidHandle, e.id)
	}
	if f := d.cfg.Inject.Fire(faults.CudaEventHandle); f != nil {
		return fmt.Errorf("%w: event %d (%w)", ErrInvalidHandle, e.id, f)
	}
	return nil
}

// StreamCreate creates a user stream (cudaStreamCreate). nonBlocking
// corresponds to cudaStreamNonBlocking: the stream is exempt from legacy
// default-stream barriers (paper §III-A).
func (d *Device) StreamCreate(nonBlocking bool) *Stream {
	s := &Stream{id: len(d.streams), nonBlocking: nonBlocking, dev: d}
	d.streams = append(d.streams, s)
	d.hooks.StreamCreated(s)
	return s
}

// StreamDestroy destroys a user stream.
func (d *Device) StreamDestroy(s *Stream) error {
	ss, err := d.checkStream(s)
	if err != nil {
		return err
	}
	if ss.IsDefault() {
		return fmt.Errorf("%w: cannot destroy the default stream", ErrInvalidValue)
	}
	if d.cfg.AsyncStreams {
		d.drainStream(ss)
	}
	d.hooks.StreamDestroyed(ss)
	ss.destroyed = true
	return nil
}

// EventCreate creates an event (cudaEventCreate).
func (d *Device) EventCreate() *Event {
	e := &Event{id: len(d.events), dev: d}
	d.events = append(d.events, e)
	d.hooks.EventCreated(e)
	return e
}

// EventDestroy destroys an event.
func (d *Device) EventDestroy(e *Event) error {
	if err := d.checkEvent(e); err != nil {
		return err
	}
	d.hooks.EventDestroyed(e)
	e.destroyed = true
	return nil
}

// EventRecord captures the current position of stream s in the event
// (cudaEventRecord).
func (d *Device) EventRecord(e *Event, s *Stream) error {
	if err := d.checkEvent(e); err != nil {
		return err
	}
	ss, err := d.checkStream(s)
	if err != nil {
		return err
	}
	d.hooks.PreEventRecord(e, ss)
	e.recorded = true
	e.stream = ss
	if d.cfg.AsyncStreams {
		d.asyncEventRecord(e, ss)
	}
	return nil
}

// EventSynchronize blocks the host until the event occurred
// (cudaEventSynchronize). Synchronizing an unrecorded event succeeds
// immediately, as in CUDA.
func (d *Device) EventSynchronize(e *Event) error {
	if err := d.checkEvent(e); err != nil {
		return err
	}
	d.hooks.PreEventSynchronize(e)
	if d.cfg.AsyncStreams && e.asyncDone != nil {
		<-e.asyncDone
	}
	return nil
}

// EventQuery polls event completion (cudaEventQuery). With eager
// execution a recorded event is always complete; in async mode the
// marker may still be pending. The interception hook only fires on a
// successful query — an incomplete poll establishes no ordering.
func (d *Device) EventQuery(e *Event) (bool, error) {
	if err := d.checkEvent(e); err != nil {
		return false, err
	}
	done := true
	if d.cfg.AsyncStreams {
		done = d.asyncEventQuery(e)
	}
	if done {
		d.hooks.PreEventQuery(e)
	}
	return done, nil
}

// StreamWaitEvent makes future work on s wait for the event
// (cudaStreamWaitEvent).
func (d *Device) StreamWaitEvent(s *Stream, e *Event) error {
	ss, err := d.checkStream(s)
	if err != nil {
		return err
	}
	if err := d.checkEvent(e); err != nil {
		return err
	}
	d.hooks.PreStreamWaitEvent(ss, e)
	if d.cfg.AsyncStreams {
		d.asyncStreamWaitEvent(ss, e)
	}
	return nil
}

// StreamSynchronize blocks the host until all commands on s completed
// (cudaStreamSynchronize).
func (d *Device) StreamSynchronize(s *Stream) error {
	ss, err := d.checkStream(s)
	if err != nil {
		return err
	}
	d.hooks.PreStreamSynchronize(ss)
	if d.cfg.AsyncStreams {
		d.drainStream(ss)
		return d.AsyncError()
	}
	return nil
}

// StreamQuery polls stream completion (cudaStreamQuery). Because this
// can be used as a busy-wait, tools must treat a successful query as a
// synchronization point (paper §III-B1).
func (d *Device) StreamQuery(s *Stream) (bool, error) {
	ss, err := d.checkStream(s)
	if err != nil {
		return false, err
	}
	done := true
	if d.cfg.AsyncStreams {
		done = d.asyncStreamQuery(ss)
	}
	if done {
		d.hooks.PreStreamQuery(ss)
	}
	return done, nil
}

// DeviceSynchronize blocks the host until all streams completed
// (cudaDeviceSynchronize).
func (d *Device) DeviceSynchronize() {
	d.hooks.PreDeviceSynchronize()
	if d.cfg.AsyncStreams {
		d.drainAll()
	}
}

// PointerGetAttributes reports the UVA memory kind of a pointer
// (cuPointerGetAttribute analog, paper §III-D).
func (d *Device) PointerGetAttributes(a memspace.Addr) memspace.Kind {
	return memspace.KindOf(a)
}
