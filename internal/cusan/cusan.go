// Package cusan is the reproduction's core contribution: the CuSan
// runtime (paper §IV), which receives the compiler-inserted CUDA API
// callbacks (cuda.Hooks) and exposes CUDA's concurrency, synchronization,
// and memory-access semantics to the race detector via TSan's fiber and
// annotation API.
//
// Concurrency model (paper §IV-A):
//   - every CUDA stream is a TSan fiber, mirroring the device's
//     independent execution relative to the host;
//   - a kernel launch switches to the stream's fiber, annotates each
//     pointer argument's memory range with the read/write attribute
//     computed by the device-code analysis (extent from TypeART), starts
//     a happens-before arc on the stream, and switches back;
//   - explicit synchronization (device/stream/event sync, stream query)
//     terminates arcs with happens-after on the host;
//   - implicit synchronization (memcpy/memset/free) follows the
//     semantics table in the cuda package;
//   - legacy default-stream semantics insert the logical barriers of
//     paper Fig. 3 between the default stream and blocking user streams.
package cusan

import (
	"fmt"
	"slices"
	"strings"

	"cusango/internal/cuda"
	"cusango/internal/kinterp"
	"cusango/internal/memspace"
	"cusango/internal/tsan"
	"cusango/internal/typeart"
)

// Sync-key classes (disjoint key spaces inside the detector).
const (
	keyClassStreamArc uint8 = 1
	keyClassEvent     uint8 = 2
)

// Options tunes the runtime; zero value is the paper's default behaviour.
type Options struct {
	// DisableMemoryTracking turns off kernel/memop memory-range
	// annotations while keeping all fiber and synchronization modeling —
	// the paper's §V-B ablation ("completely removing memory annotations
	// ... brings the overhead down to almost vanilla").
	DisableMemoryTracking bool
	// BoundaryBytes, when > 0, annotates only the first and last
	// BoundaryBytes of each kernel argument range instead of the whole
	// allocation — the §VI-D future-work optimization of focusing on the
	// boundary regions exchanged via MPI. Races in the interior of an
	// allocation can be missed in this mode.
	BoundaryBytes int64
	// PerThreadDefaultStream models --default-stream=per-thread
	// (paper §VI-B): the default stream loses its legacy barrier
	// semantics against user streams.
	PerThreadDefaultStream bool
}

// Counters are the CUDA-side event counters CuSan reports (Table I).
// The TSan-related fields count only the calls CuSan itself issued, so
// they are separable from MUST's annotations when both tools run.
// The JSON tags define the counter export schema consumed by the perf
// harness's BENCH_*.json canonical sections (internal/perf); renaming
// a tag is a schema change and must bump perf.FormatVersion.
type Counters struct {
	Streams     int64 `json:"streams"`
	Memsets     int64 `json:"memsets"`
	Memcpys     int64 `json:"memcpys"`
	SyncCalls   int64 `json:"sync_calls"`
	KernelCalls int64 `json:"kernel_calls"`
	EventsSeen  int64 `json:"events_seen"`
	// ExtentMisses counts pointer arguments whose allocation extent could
	// not be resolved through TypeART (annotation skipped).
	ExtentMisses int64 `json:"extent_misses"`

	// TSan API calls issued by CuSan (Table I, lower half).
	FiberSwitches int64 `json:"fiber_switches"`
	HBAnnotations int64 `json:"hb_annotations"`
	HAAnnotations int64 `json:"ha_annotations"`
	ReadRanges    int64 `json:"read_ranges"`
	WriteRanges   int64 `json:"write_ranges"`
	ReadBytes     int64 `json:"read_bytes"`
	WriteBytes    int64 `json:"write_bytes"`

	// Shadow range-engine counters, snapshotted from the sanitizer at
	// Counters() time (Table I extension: what the annotation traffic
	// above costs inside the detector). Unlike the call counters these
	// cover all annotation sources sharing the sanitizer, and stay zero
	// under the slow reference engine.
	EnginePages        int64 `json:"engine_pages"`
	EngineGranules     int64 `json:"engine_granules"`
	EngineFastGranules int64 `json:"engine_fast_granules"`
	EngineSameGranules int64 `json:"engine_same_granules"`
	// EngineRuns counts the run checks the batched engine performed: one
	// per run of equal shadow granules an annotation overlapped.
	EngineRuns int64 `json:"engine_runs"`
}

// CountersFromStats lifts a raw sanitizer snapshot into the exported
// counter schema: the annotation-call and range-engine rows that exist
// outside a CuSan runtime (used by detector-only workloads such as the
// perf harness's range-engine sweep).
func CountersFromStats(st tsan.Stats) Counters {
	return Counters{
		FiberSwitches:      st.FiberSwitches,
		HBAnnotations:      st.HappensBefore,
		HAAnnotations:      st.HappensAfter,
		ReadRanges:         st.ReadRangeCalls,
		WriteRanges:        st.WriteRangeCalls,
		ReadBytes:          st.ReadBytes,
		WriteBytes:         st.WriteBytes,
		EnginePages:        st.EnginePages,
		EngineGranules:     st.EngineGranules,
		EngineFastGranules: st.EngineFastGranules,
		EngineSameGranules: st.EngineSameGranules,
		EngineRuns:         st.EngineRuns,
	}
}

// AvgReadKB returns the average bytes per CuSan read-range call in KiB.
func (c *Counters) AvgReadKB() float64 {
	if c.ReadRanges == 0 {
		return 0
	}
	return float64(c.ReadBytes) / float64(c.ReadRanges) / 1024
}

// AvgWriteKB returns the average bytes per CuSan write-range call in KiB.
func (c *Counters) AvgWriteKB() float64 {
	if c.WriteRanges == 0 {
		return 0
	}
	return float64(c.WriteBytes) / float64(c.WriteRanges) / 1024
}

type streamState struct {
	stream Stream
	fiber  *tsan.Fiber
}

// Stream mirrors the identity cusan needs from a cuda stream.
type Stream struct {
	ID          int
	NonBlocking bool
	Default     bool
}

// Runtime is the per-rank CuSan runtime. Install it on a cuda.Device via
// SetHooks (the toolchain's "link against the CuSan runtime" step).
type Runtime struct {
	san  *tsan.Sanitizer
	ta   *typeart.Runtime
	opts Options

	streams map[int]*streamState
	// blocking lists the tracked blocking user streams in creation
	// order: the default stream's barrier peers.
	blocking []*streamState
	// defaultPeer is a blocking user stream's one barrier peer.
	defaultPeer [1]*streamState
	// events maps event id -> last recorded stream id (paper §IV-A:
	// "a lookup table for CUDA events to its stream").
	events map[int]int
	// memAttrs is the memory-creation-attribute lookup (paper §IV-A).
	memAttrs map[memspace.Addr]memspace.Kind

	ctr Counters

	// access-info caches, so hot paths don't allocate.
	kernelInfos map[string][]*tsan.AccessInfo
	memcpyRead  *tsan.AccessInfo
	memcpyWrite *tsan.AccessInfo
	memsetWrite *tsan.AccessInfo
	freeWrite   *tsan.AccessInfo
}

var _ cuda.Hooks = (*Runtime)(nil)

// New creates a CuSan runtime bound to a sanitizer and a TypeART runtime
// (required for allocation extents, paper §II-C/§IV).
func New(san *tsan.Sanitizer, ta *typeart.Runtime, opts Options) *Runtime {
	r := &Runtime{
		san:         san,
		ta:          ta,
		opts:        opts,
		streams:     make(map[int]*streamState),
		events:      make(map[int]int),
		memAttrs:    make(map[memspace.Addr]memspace.Kind),
		kernelInfos: make(map[string][]*tsan.AccessInfo),
		memcpyRead:  &tsan.AccessInfo{Site: "cudaMemcpy", Object: "source"},
		memcpyWrite: &tsan.AccessInfo{Site: "cudaMemcpy", Object: "destination"},
		memsetWrite: &tsan.AccessInfo{Site: "cudaMemset", Object: "destination"},
		freeWrite:   &tsan.AccessInfo{Site: "cudaFree", Object: "allocation"},
	}
	// The default stream is always tracked (paper §IV-A); the stream
	// counter reports tracked streams, so it starts at one.
	r.defaultPeer[0] = r.trackStream(Stream{ID: 0, Default: true})
	r.ctr.Streams = 1
	return r
}

// Counters returns a snapshot of the CUDA event counters, with the
// sanitizer's range-engine counters folded in.
func (r *Runtime) Counters() Counters {
	c := r.ctr
	st := r.san.Stats()
	c.EnginePages = st.EnginePages
	c.EngineGranules = st.EngineGranules
	c.EngineFastGranules = st.EngineFastGranules
	c.EngineSameGranules = st.EngineSameGranules
	c.EngineRuns = st.EngineRuns
	return c
}

// Sanitizer exposes the underlying detector (for reports and TSan stats).
func (r *Runtime) Sanitizer() *tsan.Sanitizer { return r.san }

// MemAttr returns the recorded creation attribute of an allocation base.
func (r *Runtime) MemAttr(a memspace.Addr) (memspace.Kind, bool) {
	k, ok := r.memAttrs[a]
	return k, ok
}

func (r *Runtime) trackStream(s Stream) *streamState {
	st, ok := r.streams[s.ID]
	if ok {
		return st
	}
	name := "CUDA default stream"
	if !s.Default {
		name = fmt.Sprintf("CUDA stream %d", s.ID)
	}
	st = &streamState{stream: s, fiber: r.san.CreateFiber(name)}
	r.streams[s.ID] = st
	if !s.Default && !s.NonBlocking {
		r.blocking = append(r.blocking, st)
	}
	return st
}

func streamOf(s *cuda.Stream) Stream {
	return Stream{ID: s.ID(), NonBlocking: s.NonBlocking(), Default: s.IsDefault()}
}

func arcKey(streamID int) tsan.SyncKey { return tsan.MakeKey(keyClassStreamArc, uint64(streamID)) }

// Counted TSan call wrappers: Table I reports the TSan API traffic CuSan
// generates, independent of other tools sharing the sanitizer.

func (r *Runtime) switchTo(f *tsan.Fiber, sync bool) {
	r.ctr.FiberSwitches++
	if sync {
		r.san.SwitchFiberSync(f)
	} else {
		r.san.SwitchFiber(f)
	}
}

func (r *Runtime) release(key tsan.SyncKey) {
	r.ctr.HBAnnotations++
	r.san.HappensBefore(key)
}

func (r *Runtime) acquire(key tsan.SyncKey) {
	r.ctr.HAAnnotations++
	r.san.HappensAfter(key)
}
func eventKey(eventID int) tsan.SyncKey { return tsan.MakeKey(keyClassEvent, uint64(eventID)) }

// blockingPeers returns every tracked stream that participates in legacy
// default-stream barriers with the given stream: for the default stream
// these are all blocking (non-"non-blocking") user streams; for a
// blocking user stream it is the default stream. Non-blocking streams
// have no peers, and per-thread-default-stream mode disables the
// barriers entirely (paper §III-A, §VI-B).
func (r *Runtime) blockingPeers(s Stream) []*streamState {
	switch {
	case r.opts.PerThreadDefaultStream || s.NonBlocking:
		return nil
	case s.Default:
		return r.blocking
	default:
		return r.defaultPeer[:]
	}
}

// --- stream / event lifecycle hooks ------------------------------------

// StreamCreated tracks a user stream on demand at creation time.
func (r *Runtime) StreamCreated(s *cuda.Stream) {
	r.ctr.Streams++
	r.trackStream(streamOf(s))
}

// StreamDestroyed keeps the fiber alive (past accesses may still race)
// but forgets the stream for barrier purposes.
func (r *Runtime) StreamDestroyed(s *cuda.Stream) {
	st, ok := r.streams[s.ID()]
	if !ok {
		return
	}
	delete(r.streams, s.ID())
	r.blocking = slices.DeleteFunc(r.blocking, func(b *streamState) bool { return b == st })
}

// EventCreated notes the event.
func (r *Runtime) EventCreated(e *cuda.Event) { r.ctr.EventsSeen++ }

// EventDestroyed forgets the event->stream association.
func (r *Runtime) EventDestroyed(e *cuda.Event) { delete(r.events, e.ID()) }

// --- device-side operations --------------------------------------------

// enterStream performs the host->fiber transition for an operation
// enqueued on a stream. The switch carries synchronization in the
// host->device direction (CUDA guarantees prior host work is visible to
// the enqueued operation), then legacy default-stream barriers are
// applied by acquiring every blocking peer's arc.
func (r *Runtime) enterStream(st *streamState) {
	r.switchTo(st.fiber, true)
	for _, peer := range r.blockingPeers(st.stream) {
		r.acquire(arcKey(peer.stream.ID))
	}
}

// leaveStream starts the operation's happens-before arc on the stream
// and switches back to the host fiber. A default-stream operation also
// starts an arc on every blocking user stream, because default-stream
// work blocks all succeeding operations on those streams (paper §V-A,
// Table I discussion).
func (r *Runtime) leaveStream(st *streamState) {
	r.release(arcKey(st.stream.ID))
	for _, peer := range r.blockingPeers(st.stream) {
		if st.stream.Default {
			r.release(arcKey(peer.stream.ID))
		}
	}
	r.switchTo(r.san.HostFiber(), false)
}

// annotateRange marks [a, a+n) with the given access on the current
// fiber, honouring the memory-tracking ablation and the boundary-only
// optimization.
func (r *Runtime) annotateRange(a memspace.Addr, n int64, write bool, info *tsan.AccessInfo) {
	if r.opts.DisableMemoryTracking || n <= 0 {
		return
	}
	if b := r.opts.BoundaryBytes; b > 0 && n > 2*b {
		if write {
			r.ctr.WriteRanges += 2
			r.ctr.WriteBytes += 2 * b
			r.san.WriteRange(a, b, info)
			r.san.WriteRange(a+memspace.Addr(n-b), b, info)
		} else {
			r.ctr.ReadRanges += 2
			r.ctr.ReadBytes += 2 * b
			r.san.ReadRange(a, b, info)
			r.san.ReadRange(a+memspace.Addr(n-b), b, info)
		}
		return
	}
	if write {
		r.ctr.WriteRanges++
		r.ctr.WriteBytes += n
		r.san.WriteRange(a, n, info)
	} else {
		r.ctr.ReadRanges++
		r.ctr.ReadBytes += n
		r.san.ReadRange(a, n, info)
	}
}

// PreKernelLaunch implements the kernel-call protocol of paper §IV-A(b).
func (r *Runtime) PreKernelLaunch(l *cuda.KernelLaunch) {
	r.ctr.KernelCalls++
	st := r.trackStream(streamOf(l.Stream))
	r.enterStream(st)
	if !r.opts.DisableMemoryTracking {
		r.annotateKernelArgs(l)
	}
	r.leaveStream(st)
}

// annotateKernelArgs annotates, on the current stream fiber, every
// pointer argument the kernel may read or write over the remaining
// extent of its allocation.
func (r *Runtime) annotateKernelArgs(l *cuda.KernelLaunch) {
	infos := r.kernelArgInfos(l)
	for i, arg := range l.Args {
		if arg.Kind != kinterp.ArgPtr || arg.Ptr == 0 {
			continue
		}
		acc := l.Access[i]
		if !acc.MayRead() && !acc.MayWrite() {
			continue
		}
		extent, ok := r.ta.RemainingBytes(arg.Ptr)
		if !ok {
			r.ctr.ExtentMisses++
			continue
		}
		if acc.MayRead() {
			r.annotateRange(arg.Ptr, extent, false, infos[i])
		}
		if acc.MayWrite() {
			r.annotateRange(arg.Ptr, extent, true, infos[i])
		}
	}
}

func (r *Runtime) kernelArgInfos(l *cuda.KernelLaunch) []*tsan.AccessInfo {
	infos, ok := r.kernelInfos[l.Name]
	if ok {
		return infos
	}
	infos = make([]*tsan.AccessInfo, len(l.Params))
	for i, p := range l.Params {
		infos[i] = &tsan.AccessInfo{
			Site:   "kernel " + l.Name,
			Object: fmt.Sprintf("arg %d (%s)", i, p.Name),
		}
	}
	r.kernelInfos[l.Name] = infos
	return infos
}

// PreMemcpy models cudaMemcpy(Async): the copy executes on its stream
// (reading src, writing dst) and, when the semantics table says so,
// synchronizes the host (paper §IV-A(d)).
func (r *Runtime) PreMemcpy(op *cuda.MemOp) {
	r.ctr.Memcpys++
	st := r.trackStream(streamOf(op.Stream))
	r.enterStream(st)
	r.annotateRange(op.Src, op.Bytes, false, r.memcpyRead)
	r.annotateRange(op.Dst, op.Bytes, true, r.memcpyWrite)
	r.leaveStream(st)
	if op.SyncsHost {
		r.synchronizeStream(st)
	}
}

// PreMemset models cudaMemset(Async).
func (r *Runtime) PreMemset(op *cuda.MemOp) {
	r.ctr.Memsets++
	st := r.trackStream(streamOf(op.Stream))
	r.enterStream(st)
	r.annotateRange(op.Dst, op.Bytes, true, r.memsetWrite)
	r.leaveStream(st)
	if op.SyncsHost {
		r.synchronizeStream(st)
	}
}

// --- synchronization hooks ----------------------------------------------

// synchronizeStream terminates the stream's happens-before arc on the
// host. Synchronizing the default stream also terminates the arcs of all
// blocking user streams, which must have completed (paper §IV-A(e)).
func (r *Runtime) synchronizeStream(st *streamState) {
	r.acquire(arcKey(st.stream.ID))
	if st.stream.Default {
		for _, peer := range r.blockingPeers(st.stream) {
			r.acquire(arcKey(peer.stream.ID))
		}
	}
}

// PreStreamSynchronize handles cudaStreamSynchronize.
func (r *Runtime) PreStreamSynchronize(s *cuda.Stream) {
	r.ctr.SyncCalls++
	r.synchronizeStream(r.trackStream(streamOf(s)))
}

// PreStreamQuery handles cudaStreamQuery: a successful query can be used
// as a busy-wait, so it must count as synchronization (paper §III-B1).
func (r *Runtime) PreStreamQuery(s *cuda.Stream) {
	r.ctr.SyncCalls++
	r.synchronizeStream(r.trackStream(streamOf(s)))
}

// PreDeviceSynchronize handles cudaDeviceSynchronize: iterate over all
// existing streams and terminate each arc (paper §IV-A(c)).
func (r *Runtime) PreDeviceSynchronize() {
	r.ctr.SyncCalls++
	for _, st := range r.streams {
		r.acquire(arcKey(st.stream.ID))
	}
}

// PreEventRecord places a marker: the stream fiber releases into the
// event's sync key, capturing all work enqueued so far.
func (r *Runtime) PreEventRecord(e *cuda.Event, s *cuda.Stream) {
	st := r.trackStream(streamOf(s))
	r.events[e.ID()] = s.ID()
	r.switchTo(st.fiber, false)
	r.release(eventKey(e.ID()))
	r.switchTo(r.san.HostFiber(), false)
}

// PreEventSynchronize terminates the event's arc on the host.
func (r *Runtime) PreEventSynchronize(e *cuda.Event) {
	r.ctr.SyncCalls++
	r.acquire(eventKey(e.ID()))
}

// PreEventQuery: a successful query is usable as a busy-wait; treated as
// synchronization like stream query.
func (r *Runtime) PreEventQuery(e *cuda.Event) {
	r.ctr.SyncCalls++
	r.acquire(eventKey(e.ID()))
}

// PreStreamWaitEvent orders future work on s after the event: the
// stream's fiber acquires the event key (paper §III-B1).
func (r *Runtime) PreStreamWaitEvent(s *cuda.Stream, e *cuda.Event) {
	r.ctr.SyncCalls++
	st := r.trackStream(streamOf(s))
	r.switchTo(st.fiber, false)
	r.acquire(eventKey(e.ID()))
	r.switchTo(r.san.HostFiber(), false)
}

// --- allocation hooks (TypeART extension, paper §IV-C) -------------------

// AllocDone records the CUDA allocation in TypeART (as a byte array — a
// typed view may be registered later via typeart.Runtime.Retype) and in
// the memory-attribute table.
func (r *Runtime) AllocDone(a memspace.Addr, bytes int64, kind memspace.Kind) {
	r.memAttrs[a] = kind
	// Duplicate tracking (e.g. a typed toolchain helper already
	// registered the allocation) is not an error here.
	_ = r.ta.Track(a, typeart.TypeUint8, bytes, kind)
}

// PreFree models cudaFree's device-wide synchronization, marks the freed
// range as written (catching use-after-free style races with in-flight
// device work), and releases the TypeART record.
func (r *Runtime) PreFree(a memspace.Addr, kind memspace.Kind, syncsHost bool) {
	if syncsHost {
		r.ctr.SyncCalls++
		for _, st := range r.streams {
			r.acquire(arcKey(st.stream.ID))
		}
	}
	if extent, ok := r.ta.RemainingBytes(a); ok {
		r.annotateRange(a, extent, true, r.freeWrite)
	}
	delete(r.memAttrs, a)
	_ = r.ta.Release(a)
}

// FormatCounters renders the Table I-style per-process report the paper
// shows for CuSan's event counters.
func (r *Runtime) FormatCounters() string {
	c := r.Counters()
	var b strings.Builder
	b.WriteString("CUDA runtime events:\n")
	fmt.Fprintf(&b, "  Stream                      %8d\n", c.Streams)
	fmt.Fprintf(&b, "  Memset                      %8d\n", c.Memsets)
	fmt.Fprintf(&b, "  Memcpy                      %8d\n", c.Memcpys)
	fmt.Fprintf(&b, "  Synchronization calls       %8d\n", c.SyncCalls)
	fmt.Fprintf(&b, "  Kernel calls                %8d\n", c.KernelCalls)
	b.WriteString("TSan API calls:\n")
	fmt.Fprintf(&b, "  Switch To Fiber             %8d\n", c.FiberSwitches)
	fmt.Fprintf(&b, "  AnnotateHappensBefore       %8d\n", c.HBAnnotations)
	fmt.Fprintf(&b, "  AnnotateHappensAfter        %8d\n", c.HAAnnotations)
	fmt.Fprintf(&b, "  Memory Read Range           %8d\n", c.ReadRanges)
	fmt.Fprintf(&b, "  Memory Write Range          %8d\n", c.WriteRanges)
	fmt.Fprintf(&b, "  Memory Read Size [avg KB]   %11.2f\n", c.AvgReadKB())
	fmt.Fprintf(&b, "  Memory Write Size [avg KB]  %11.2f\n", c.AvgWriteKB())
	b.WriteString("Shadow engine:\n")
	fmt.Fprintf(&b, "  Pages touched               %8d\n", c.EnginePages)
	fmt.Fprintf(&b, "  Granules processed          %8d\n", c.EngineGranules)
	fmt.Fprintf(&b, "  Fast-path granules          %8d\n", c.EngineFastGranules)
	fmt.Fprintf(&b, "  Screened-same granules      %8d\n", c.EngineSameGranules)
	fmt.Fprintf(&b, "  Run checks                  %8d\n", c.EngineRuns)
	return b.String()
}
