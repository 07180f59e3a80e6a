package cusan

import (
	"strings"
	"testing"

	"cusango/internal/cuda"
	"cusango/internal/kinterp"
	"cusango/internal/kir"
	"cusango/internal/memspace"
	"cusango/internal/tsan"
	"cusango/internal/typeart"
)

// env bundles one instrumented rank: sanitizer + typeart + cusan + device.
type env struct {
	san *tsan.Sanitizer
	ta  *typeart.Runtime
	rt  *Runtime
	dev *cuda.Device
	mem *memspace.Memory
}

// testProgram compiles testModule.
func testProgram(t testing.TB) *cuda.Program {
	t.Helper()
	prog, err := cuda.Compile(testModule())
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	return prog
}

func testModule() *kir.Module {
	m := kir.NewModule()
	m.Add(kir.KernelFunc("writer", []kir.Param{
		{Name: "buf", Type: kir.TPtrF64},
		{Name: "n", Type: kir.TInt},
	}, func(e *kir.Emitter) {
		i := e.GlobalIDX()
		e.If(e.Lt(i, e.Arg("n")), func() {
			e.StoreIdx(e.Arg("buf"), i, e.ToFloat(i))
		})
	}))
	m.Add(kir.KernelFunc("reader", []kir.Param{
		{Name: "out", Type: kir.TPtrF64},
		{Name: "buf", Type: kir.TPtrF64},
		{Name: "n", Type: kir.TInt},
	}, func(e *kir.Emitter) {
		i := e.GlobalIDX()
		e.If(e.Lt(i, e.Arg("n")), func() {
			e.StoreIdx(e.Arg("out"), i, e.LoadIdx(e.Arg("buf"), i))
		})
	}))
	return m
}

func newEnv(t *testing.T, opts Options) *env {
	t.Helper()
	mem := memspace.New()
	san := tsan.New(tsan.Config{})
	ta := typeart.NewRuntime(nil)
	rt := New(san, ta, opts)
	dev := cuda.NewDevice(mem, testProgram(t), cuda.Config{}, rt)
	return &env{san: san, ta: ta, rt: rt, dev: dev, mem: mem}
}

const n = 64

func (e *env) allocDev(t *testing.T) memspace.Addr {
	t.Helper()
	a, err := e.dev.Malloc(n * 8)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func (e *env) launch(t *testing.T, kernel string, s *cuda.Stream, ptrs ...memspace.Addr) {
	t.Helper()
	args := make([]kinterp.Arg, 0, len(ptrs)+1)
	for _, p := range ptrs {
		args = append(args, kinterp.Ptr(p))
	}
	args = append(args, kinterp.Int(n))
	if err := e.dev.LaunchKernel(kernel, kinterp.Dim(1), kinterp.Dim(n), args, s); err != nil {
		t.Fatalf("launch %s: %v", kernel, err)
	}
}

// hostRead models TSan-instrumented host code reading the buffer
// (e.g. an intercepted MPI_Send of a device pointer would annotate the
// same way via MUST; here we annotate directly).
func (e *env) hostRead(a memspace.Addr) {
	e.san.ReadRange(a, n*8, &tsan.AccessInfo{Site: "host", Object: "read"})
}

func (e *env) hostWrite(a memspace.Addr) {
	e.san.WriteRange(a, n*8, &tsan.AccessInfo{Site: "host", Object: "write"})
}

func TestKernelThenHostReadWithoutSyncRaces(t *testing.T) {
	// Paper Fig. 4 without line 4: kernel writes, host uses the data
	// without cudaDeviceSynchronize.
	e := newEnv(t, Options{})
	buf := e.allocDev(t)
	e.launch(t, "writer", nil, buf)
	e.hostRead(buf)
	if e.san.RaceCount() == 0 {
		t.Fatal("expected race: kernel write vs host read without sync")
	}
}

func TestDeviceSynchronizeOrders(t *testing.T) {
	e := newEnv(t, Options{})
	buf := e.allocDev(t)
	e.launch(t, "writer", nil, buf)
	e.dev.DeviceSynchronize()
	e.hostRead(buf)
	if got := e.san.RaceCount(); got != 0 {
		t.Fatalf("unexpected races after deviceSynchronize: %d\n%v", got, e.san.Reports())
	}
}

func TestStreamSynchronizeOrdersOnlyThatStream(t *testing.T) {
	e := newEnv(t, Options{})
	s1 := e.dev.StreamCreate(true) // non-blocking: no legacy coupling
	s2 := e.dev.StreamCreate(true)
	b1 := e.allocDev(t)
	b2 := e.allocDev(t)
	e.launch(t, "writer", s1, b1)
	e.launch(t, "writer", s2, b2)
	if err := e.dev.StreamSynchronize(s1); err != nil {
		t.Fatal(err)
	}
	e.hostRead(b1) // ordered
	e.hostRead(b2) // NOT ordered -> race
	if got := e.san.RaceCount(); got != 1 {
		t.Fatalf("races = %d, want exactly 1 (only s2 unsynced)\n%v", got, e.san.Reports())
	}
}

func TestEventSynchronize(t *testing.T) {
	e := newEnv(t, Options{})
	s := e.dev.StreamCreate(true)
	buf := e.allocDev(t)
	ev := e.dev.EventCreate()
	e.launch(t, "writer", s, buf)
	if err := e.dev.EventRecord(ev, s); err != nil {
		t.Fatal(err)
	}
	if err := e.dev.EventSynchronize(ev); err != nil {
		t.Fatal(err)
	}
	e.hostRead(buf)
	if got := e.san.RaceCount(); got != 0 {
		t.Fatalf("unexpected races after eventSynchronize: %d", got)
	}
}

func TestEventRecordedBeforeKernelDoesNotCover(t *testing.T) {
	// Record the event BEFORE the kernel: synchronizing it must not
	// order the kernel's accesses.
	e := newEnv(t, Options{})
	s := e.dev.StreamCreate(true)
	buf := e.allocDev(t)
	ev := e.dev.EventCreate()
	if err := e.dev.EventRecord(ev, s); err != nil {
		t.Fatal(err)
	}
	e.launch(t, "writer", s, buf)
	if err := e.dev.EventSynchronize(ev); err != nil {
		t.Fatal(err)
	}
	e.hostRead(buf)
	if e.san.RaceCount() == 0 {
		t.Fatal("expected race: event marker precedes the kernel")
	}
}

func TestStreamWaitEventOrdersAcrossStreams(t *testing.T) {
	// writer on s1, event; s2 waits on event, reader on s2 reads buf:
	// ordered. Then host syncs s2 only and reads out: ordered; reading
	// buf races only if s1 never synced — sync s1 too for a clean run.
	e := newEnv(t, Options{})
	s1 := e.dev.StreamCreate(true)
	s2 := e.dev.StreamCreate(true)
	buf := e.allocDev(t)
	out := e.allocDev(t)
	ev := e.dev.EventCreate()
	e.launch(t, "writer", s1, buf)
	if err := e.dev.EventRecord(ev, s1); err != nil {
		t.Fatal(err)
	}
	if err := e.dev.StreamWaitEvent(s2, ev); err != nil {
		t.Fatal(err)
	}
	e.launch(t, "reader", s2, out, buf)
	if err := e.dev.StreamSynchronize(s2); err != nil {
		t.Fatal(err)
	}
	if err := e.dev.StreamSynchronize(s1); err != nil {
		t.Fatal(err)
	}
	e.hostRead(out)
	e.hostRead(buf)
	if got := e.san.RaceCount(); got != 0 {
		t.Fatalf("unexpected races with streamWaitEvent chain: %d\n%v", got, e.san.Reports())
	}
}

func TestMissingStreamWaitEventRaces(t *testing.T) {
	// Same as above but WITHOUT the streamWaitEvent: writer on s1 and
	// reader on s2 access buf concurrently.
	e := newEnv(t, Options{})
	s1 := e.dev.StreamCreate(true)
	s2 := e.dev.StreamCreate(true)
	buf := e.allocDev(t)
	out := e.allocDev(t)
	e.launch(t, "writer", s1, buf)
	e.launch(t, "reader", s2, out, buf)
	if e.san.RaceCount() == 0 {
		t.Fatal("expected race: cross-stream accesses without event ordering")
	}
}

func TestStreamQueryActsAsSynchronization(t *testing.T) {
	e := newEnv(t, Options{})
	s := e.dev.StreamCreate(true)
	buf := e.allocDev(t)
	e.launch(t, "writer", s, buf)
	if _, err := e.dev.StreamQuery(s); err != nil {
		t.Fatal(err)
	}
	e.hostRead(buf)
	if got := e.san.RaceCount(); got != 0 {
		t.Fatalf("stream query must count as sync (busy-wait): %d races", got)
	}
}

// TestLegacyDefaultStreamBarriers reproduces paper Fig. 3: K1 on stream1
// (blocking), K0 on the default stream, K2 on stream2 (blocking). A host
// synchronization on stream2 must also cover K0 and K1.
func TestLegacyDefaultStreamBarriers(t *testing.T) {
	e := newEnv(t, Options{})
	s1 := e.dev.StreamCreate(false) // blocking user streams
	s2 := e.dev.StreamCreate(false)
	b1 := e.allocDev(t)
	b0 := e.allocDev(t)
	b2 := e.allocDev(t)
	e.launch(t, "writer", s1, b1)  // K1
	e.launch(t, "writer", nil, b0) // K0 on default: waits for K1
	e.launch(t, "writer", s2, b2)  // K2: waits for K0
	if err := e.dev.StreamSynchronize(s2); err != nil {
		t.Fatal(err)
	}
	e.hostRead(b2)
	e.hostRead(b0)
	e.hostRead(b1)
	if got := e.san.RaceCount(); got != 0 {
		t.Fatalf("legacy default-stream barriers not modeled: %d races\n%v", got, e.san.Reports())
	}
}

func TestDefaultStreamSyncCoversBlockingStreams(t *testing.T) {
	// Paper §IV-A(e): synchronizing the default stream terminates the
	// arcs of all blocking streams.
	e := newEnv(t, Options{})
	s1 := e.dev.StreamCreate(false)
	b1 := e.allocDev(t)
	e.launch(t, "writer", s1, b1)
	if err := e.dev.StreamSynchronize(e.dev.DefaultStream()); err != nil {
		t.Fatal(err)
	}
	e.hostRead(b1)
	if got := e.san.RaceCount(); got != 0 {
		t.Fatalf("default-stream sync must cover blocking streams: %d races", got)
	}
}

func TestDestroyedStreamLeavesBarriers(t *testing.T) {
	// A default-stream launch acquires and releases its own arc and the
	// arc of every live blocking user stream; a destroyed stream and a
	// non-blocking one take no part.
	e := newEnv(t, Options{})
	s1 := e.dev.StreamCreate(false)
	e.dev.StreamCreate(false) // s2, live
	e.dev.StreamCreate(true)
	if err := e.dev.StreamDestroy(s1); err != nil {
		t.Fatal(err)
	}
	b := e.allocDev(t)
	before := e.rt.Counters()
	e.launch(t, "writer", nil, b)
	after := e.rt.Counters()
	if ha, hb := after.HAAnnotations-before.HAAnnotations, after.HBAnnotations-before.HBAnnotations; ha != 1 || hb != 2 {
		t.Fatalf("default-stream launch: %d acquires, %d releases; want 1 (s2) and 2 (own arc, s2)", ha, hb)
	}
}

func TestNonBlockingStreamExemptFromBarriers(t *testing.T) {
	// A non-blocking stream does not participate in default-stream
	// barriers: syncing the default stream must NOT cover it.
	e := newEnv(t, Options{})
	nb := e.dev.StreamCreate(true)
	b := e.allocDev(t)
	e.launch(t, "writer", nb, b)
	if err := e.dev.StreamSynchronize(e.dev.DefaultStream()); err != nil {
		t.Fatal(err)
	}
	e.hostRead(b)
	if e.san.RaceCount() == 0 {
		t.Fatal("non-blocking stream must be exempt from legacy barriers")
	}
}

func TestPerThreadDefaultStreamMode(t *testing.T) {
	// In PTDS mode the default stream has no legacy barriers: a blocking
	// user stream is NOT covered by a default-stream sync.
	e := newEnv(t, Options{PerThreadDefaultStream: true})
	s1 := e.dev.StreamCreate(false)
	b1 := e.allocDev(t)
	e.launch(t, "writer", s1, b1)
	if err := e.dev.StreamSynchronize(e.dev.DefaultStream()); err != nil {
		t.Fatal(err)
	}
	e.hostRead(b1)
	if e.san.RaceCount() == 0 {
		t.Fatal("PTDS mode must drop legacy default-stream coverage")
	}
}

func TestMemcpyD2HSynchronizesHost(t *testing.T) {
	// Kernel writes buf on the default stream, then a synchronous D2H
	// memcpy: the implicit synchronization orders the kernel before
	// subsequent host accesses (paper §III-B2).
	e := newEnv(t, Options{})
	buf := e.allocDev(t)
	host := e.mem.Alloc(n*8, memspace.KindHostPageable)
	e.launch(t, "writer", nil, buf)
	if err := e.dev.Memcpy(host, buf, n*8); err != nil {
		t.Fatal(err)
	}
	e.hostRead(buf)
	if got := e.san.RaceCount(); got != 0 {
		t.Fatalf("sync memcpy must order prior default-stream work: %d races\n%v", got, e.san.Reports())
	}
}

func TestMemcpyAsyncDoesNotSynchronize(t *testing.T) {
	e := newEnv(t, Options{})
	buf := e.allocDev(t)
	host := e.mem.Alloc(n*8, memspace.KindHostPageable)
	e.launch(t, "writer", nil, buf)
	if err := e.dev.MemcpyAsync(host, buf, n*8, nil); err != nil {
		t.Fatal(err)
	}
	e.hostRead(buf)
	if e.san.RaceCount() == 0 {
		t.Fatal("async memcpy must not synchronize the host")
	}
}

func TestMemcpyAsyncReadOfHostBufferRacesWithHostWrite(t *testing.T) {
	// cudaMemcpyAsync reads the host source; an unsynchronized
	// host write to the source afterwards is a race.
	e := newEnv(t, Options{})
	buf := e.allocDev(t)
	pinned, err := e.dev.HostAlloc(n * 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.dev.MemcpyAsync(buf, pinned, n*8, nil); err != nil {
		t.Fatal(err)
	}
	e.hostWrite(pinned)
	if e.san.RaceCount() == 0 {
		t.Fatal("expected race: host write vs in-flight async memcpy read")
	}
}

func TestMemsetDeviceIsAsync(t *testing.T) {
	e := newEnv(t, Options{})
	buf := e.allocDev(t)
	if err := e.dev.Memset(buf, 0, n*8); err != nil {
		t.Fatal(err)
	}
	e.hostRead(buf)
	if e.san.RaceCount() == 0 {
		t.Fatal("device memset is async w.r.t. host: read must race")
	}
}

func TestMemsetPinnedSynchronizes(t *testing.T) {
	e := newEnv(t, Options{})
	pinned, err := e.dev.HostAlloc(n * 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.dev.Memset(pinned, 0, n*8); err != nil {
		t.Fatal(err)
	}
	e.hostRead(pinned)
	if got := e.san.RaceCount(); got != 0 {
		t.Fatalf("pinned memset synchronizes with host: %d races", got)
	}
}

func TestCudaFreeSynchronizesDevice(t *testing.T) {
	// Kernel writes b1; cudaFree(b2) synchronizes the whole device;
	// host read of b1 afterwards is ordered.
	e := newEnv(t, Options{})
	b1 := e.allocDev(t)
	b2 := e.allocDev(t)
	e.launch(t, "writer", nil, b1)
	if err := e.dev.Free(b2); err != nil {
		t.Fatal(err)
	}
	e.hostRead(b1)
	if got := e.san.RaceCount(); got != 0 {
		t.Fatalf("cudaFree must synchronize the device: %d races", got)
	}
}

func TestFreeAsyncRacesWithInFlightKernel(t *testing.T) {
	e := newEnv(t, Options{})
	s := e.dev.StreamCreate(true)
	buf := e.allocDev(t)
	e.launch(t, "writer", s, buf)
	// Freeing on another (default) stream without ordering: the free's
	// write annotation races with the kernel's write.
	if err := e.dev.FreeAsync(buf, nil); err != nil {
		t.Fatal(err)
	}
	if e.san.RaceCount() == 0 {
		t.Fatal("expected race: freeAsync vs in-flight kernel on another stream")
	}
}

func TestManagedMemoryHostAccessRaces(t *testing.T) {
	// Managed memory accessed by host code (TSan-instrumented scalar
	// accesses) while a kernel writes it: race without explicit sync
	// (paper §III-C, §IV-A(f)).
	e := newEnv(t, Options{})
	mbuf, err := e.dev.MallocManaged(n * 8)
	if err != nil {
		t.Fatal(err)
	}
	e.launch(t, "writer", nil, mbuf)
	// Host dereferences managed pointer directly (instrumented load).
	e.san.Read(mbuf, 8, &tsan.AccessInfo{Site: "host", Object: "managed load"})
	if e.san.RaceCount() == 0 {
		t.Fatal("expected race on unsynchronized managed access")
	}
}

func TestAblationDisableMemoryTracking(t *testing.T) {
	// Paper §V-B: removing memory annotations (keeping the rest) makes
	// the racy pattern invisible.
	e := newEnv(t, Options{DisableMemoryTracking: true})
	buf := e.allocDev(t)
	e.launch(t, "writer", nil, buf)
	e.hostRead(buf)
	if got := e.san.RaceCount(); got != 0 {
		t.Fatalf("memory tracking disabled but %d races reported", got)
	}
	if st := e.san.Stats(); st.WriteRangeCalls != 0 {
		t.Fatalf("write ranges annotated despite ablation: %d", st.WriteRangeCalls)
	}
}

func TestBoundaryOnlyTracking(t *testing.T) {
	// §VI-D optimization: only boundary bytes annotated. A host access
	// to the first element still races; an interior-only access is
	// missed (documented precision loss).
	e := newEnv(t, Options{BoundaryBytes: 16})
	buf := e.allocDev(t)
	e.launch(t, "writer", nil, buf)
	// interior access: bytes [128, 136) — not annotated
	e.san.ReadRange(buf+128, 8, &tsan.AccessInfo{Site: "host", Object: "interior"})
	if got := e.san.RaceCount(); got != 0 {
		t.Fatalf("interior access should be missed in boundary mode, got %d", got)
	}
	e.san.ReadRange(buf, 8, &tsan.AccessInfo{Site: "host", Object: "boundary"})
	if e.san.RaceCount() == 0 {
		t.Fatal("boundary access must still be detected")
	}
	st := e.san.Stats()
	if st.WriteBytes >= n*8 {
		t.Fatalf("boundary mode tracked %d bytes, expected < %d", st.WriteBytes, n*8)
	}
}

func TestCountersTableI(t *testing.T) {
	e := newEnv(t, Options{})
	buf := e.allocDev(t)
	host := e.mem.Alloc(n*8, memspace.KindHostPageable)
	s := e.dev.StreamCreate(false)
	e.launch(t, "writer", nil, buf)
	e.launch(t, "writer", s, buf) // note: racy, but counters are the point
	_ = e.dev.Memset(buf, 0, n*8)
	_ = e.dev.Memcpy(host, buf, n*8)
	_ = e.dev.StreamSynchronize(s)
	e.dev.DeviceSynchronize()

	c := e.rt.Counters()
	if c.KernelCalls != 2 {
		t.Errorf("kernels = %d", c.KernelCalls)
	}
	if c.Memsets != 1 || c.Memcpys != 1 {
		t.Errorf("memsets/memcpys = %d/%d", c.Memsets, c.Memcpys)
	}
	if c.SyncCalls != 2 {
		t.Errorf("sync calls = %d", c.SyncCalls)
	}
	if c.Streams != 2 { // default + one user stream
		t.Errorf("streams = %d", c.Streams)
	}
	st := e.san.Stats()
	// 2 switches per device op (enter+leave): kernels(2) + memset + memcpy.
	if st.FiberSwitches != 8 {
		t.Errorf("fiber switches = %d, want 8", st.FiberSwitches)
	}
	// HB: one arc release per op on its stream, plus peer releases for
	// default-stream ops (1 blocking user stream exists for the default
	// kernel, memset, memcpy; the s-kernel has none... but note the
	// s-kernel is blocking, so no extra release — only default ops add).
	if st.HappensBefore < 4 {
		t.Errorf("happens-before = %d, want >= 4", st.HappensBefore)
	}
	if st.HappensAfter == 0 {
		t.Error("expected happens-after events from syncs and memcpy")
	}
}

func TestExtentComesFromTypeART(t *testing.T) {
	e := newEnv(t, Options{})
	buf := e.allocDev(t)
	e.launch(t, "writer", nil, buf)
	st := e.san.Stats()
	if st.WriteBytes != n*8 {
		t.Fatalf("annotated %d bytes, want full allocation %d", st.WriteBytes, n*8)
	}
	if e.rt.Counters().ExtentMisses != 0 {
		t.Fatal("unexpected extent misses")
	}
}

func TestInteriorPointerExtent(t *testing.T) {
	// Launch with a pointer into the middle of an allocation: annotated
	// extent must be the remaining bytes only.
	e := newEnv(t, Options{})
	buf := e.allocDev(t)
	half := buf + memspace.Addr(n/2*8)
	args := []kinterp.Arg{kinterp.Ptr(half), kinterp.Int(n / 2)}
	if err := e.dev.LaunchKernel("writer", kinterp.Dim(1), kinterp.Dim(n/2), args, nil); err != nil {
		t.Fatal(err)
	}
	if st := e.san.Stats(); st.WriteBytes != n/2*8 {
		t.Fatalf("annotated %d bytes, want %d", st.WriteBytes, n/2*8)
	}
}

func TestMemAttrTable(t *testing.T) {
	e := newEnv(t, Options{})
	buf := e.allocDev(t)
	pinned, _ := e.dev.HostAlloc(8)
	if k, ok := e.rt.MemAttr(buf); !ok || k != memspace.KindDevice {
		t.Fatal("device attr not recorded")
	}
	if k, ok := e.rt.MemAttr(pinned); !ok || k != memspace.KindHostPinned {
		t.Fatal("pinned attr not recorded")
	}
	_ = e.dev.Free(buf)
	if _, ok := e.rt.MemAttr(buf); ok {
		t.Fatal("attr survives free")
	}
}

func TestTwoKernelsSameStreamOrdered(t *testing.T) {
	// Same stream = same fiber = program order; writer then reader on
	// one stream must not race with each other.
	e := newEnv(t, Options{})
	s := e.dev.StreamCreate(true)
	buf := e.allocDev(t)
	out := e.allocDev(t)
	e.launch(t, "writer", s, buf)
	e.launch(t, "reader", s, out, buf)
	if got := e.san.RaceCount(); got != 0 {
		t.Fatalf("same-stream kernels must be ordered: %d races", got)
	}
}

func TestHostWriteBeforeLaunchIsOrdered(t *testing.T) {
	// CUDA guarantees prior host work is visible to the launched kernel:
	// a host write to pinned memory followed by a kernel READING it must
	// not be flagged (the launch switch carries host->device sync).
	e := newEnv(t, Options{})
	pinned, _ := e.dev.HostAlloc(n * 8)
	out := e.allocDev(t)
	e.hostWrite(pinned)
	e.launch(t, "reader", nil, out, pinned)
	if got := e.san.RaceCount(); got != 0 {
		t.Fatalf("host-before-launch ordering missing: %d races\n%v", got, e.san.Reports())
	}
}

func TestRaceReportNamesKernelAndArg(t *testing.T) {
	e := newEnv(t, Options{})
	buf := e.allocDev(t)
	e.launch(t, "writer", nil, buf)
	e.hostRead(buf)
	reps := e.san.Reports()
	if len(reps) == 0 {
		t.Fatal("no report")
	}
	prev := reps[0].Previous.Info.String()
	if prev != "kernel writer arg 0 (buf)" {
		t.Fatalf("previous access info = %q", prev)
	}
}

func TestFormatCounters(t *testing.T) {
	e := newEnv(t, Options{})
	buf := e.allocDev(t)
	e.launch(t, "writer", nil, buf)
	e.dev.DeviceSynchronize()
	out := e.rt.FormatCounters()
	for _, want := range []string{
		"Kernel calls", "Switch To Fiber", "AnnotateHappensBefore",
		"Memory Write Size [avg KB]",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}
