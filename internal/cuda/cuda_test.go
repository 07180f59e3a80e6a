package cuda

import (
	"errors"
	"fmt"
	"testing"

	"cusango/internal/kinterp"
	"cusango/internal/kir"
	"cusango/internal/memspace"
)

// recordingHooks logs every callback for sequence assertions.
type recordingHooks struct {
	BaseHooks
	log []string
}

func (h *recordingHooks) AllocDone(a memspace.Addr, n int64, k memspace.Kind) {
	h.log = append(h.log, fmt.Sprintf("alloc:%v:%d", k, n))
}
func (h *recordingHooks) PreFree(a memspace.Addr, k memspace.Kind, sync bool) {
	h.log = append(h.log, fmt.Sprintf("free:%v:sync=%v", k, sync))
}
func (h *recordingHooks) StreamCreated(s *Stream) {
	h.log = append(h.log, fmt.Sprintf("streamCreate:%d:nb=%v", s.ID(), s.NonBlocking()))
}
func (h *recordingHooks) StreamDestroyed(s *Stream) {
	h.log = append(h.log, fmt.Sprintf("streamDestroy:%d", s.ID()))
}
func (h *recordingHooks) PreEventRecord(e *Event, s *Stream) {
	h.log = append(h.log, fmt.Sprintf("eventRecord:%d:on=%d", e.ID(), s.ID()))
}
func (h *recordingHooks) PreEventSynchronize(e *Event) {
	h.log = append(h.log, fmt.Sprintf("eventSync:%d", e.ID()))
}
func (h *recordingHooks) PreStreamWaitEvent(s *Stream, e *Event) {
	h.log = append(h.log, fmt.Sprintf("streamWaitEvent:%d:%d", s.ID(), e.ID()))
}
func (h *recordingHooks) PreStreamSynchronize(s *Stream) {
	h.log = append(h.log, fmt.Sprintf("streamSync:%d", s.ID()))
}
func (h *recordingHooks) PreStreamQuery(s *Stream) {
	h.log = append(h.log, fmt.Sprintf("streamQuery:%d", s.ID()))
}
func (h *recordingHooks) PreDeviceSynchronize() {
	h.log = append(h.log, "deviceSync")
}
func (h *recordingHooks) PreKernelLaunch(l *KernelLaunch) {
	h.log = append(h.log, fmt.Sprintf("launch:%s:on=%d", l.Name, l.Stream.ID()))
}
func (h *recordingHooks) PreMemcpy(op *MemOp) {
	h.log = append(h.log, fmt.Sprintf("memcpy:%d:sync=%v", op.Bytes, op.SyncsHost))
}
func (h *recordingHooks) PreMemset(op *MemOp) {
	h.log = append(h.log, fmt.Sprintf("memset:%d:sync=%v", op.Bytes, op.SyncsHost))
}

func scaleModule() *kir.Module {
	m := kir.NewModule()
	m.Add(kir.KernelFunc("scale", []kir.Param{
		{Name: "buf", Type: kir.TPtrF64},
		{Name: "n", Type: kir.TInt},
		{Name: "f", Type: kir.TFloat},
	}, func(e *kir.Emitter) {
		i := e.GlobalIDX()
		e.If(e.Lt(i, e.Arg("n")), func() {
			p := e.GEP(e.Arg("buf"), i)
			e.Store(p, e.Mul(e.Load(p), e.Arg("f")))
		})
	}))
	return m
}

func newDev(t *testing.T, hooks Hooks) (*Device, *memspace.Memory) {
	t.Helper()
	mem := memspace.New()
	prog, err := Compile(scaleModule())
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	d := NewDevice(mem, prog, Config{}, hooks)
	return d, mem
}

func TestMallocKinds(t *testing.T) {
	d, _ := newDev(t, nil)
	dp, err := d.Malloc(64)
	if err != nil || memspace.KindOf(dp) != memspace.KindDevice {
		t.Fatalf("Malloc: %v kind %v", err, memspace.KindOf(dp))
	}
	hp, err := d.HostAlloc(64)
	if err != nil || memspace.KindOf(hp) != memspace.KindHostPinned {
		t.Fatalf("HostAlloc: %v kind %v", err, memspace.KindOf(hp))
	}
	mp, err := d.MallocManaged(64)
	if err != nil || memspace.KindOf(mp) != memspace.KindManaged {
		t.Fatalf("MallocManaged: %v kind %v", err, memspace.KindOf(mp))
	}
	if _, err := d.Malloc(-1); !errors.Is(err, ErrInvalidValue) {
		t.Fatal("negative malloc must fail")
	}
}

func TestFreeKindChecks(t *testing.T) {
	d, mem := newDev(t, nil)
	dp, _ := d.Malloc(64)
	hp, _ := d.HostAlloc(64)
	pageable := mem.Alloc(64, memspace.KindHostPageable)

	if err := d.Free(hp); !errors.Is(err, ErrInvalidPointer) {
		t.Error("Free(pinned) must fail")
	}
	if err := d.FreeHost(dp); !errors.Is(err, ErrInvalidPointer) {
		t.Error("FreeHost(device) must fail")
	}
	if err := d.Free(pageable); !errors.Is(err, ErrInvalidPointer) {
		t.Error("Free(pageable) must fail")
	}
	if err := d.Free(dp); err != nil {
		t.Errorf("Free(device): %v", err)
	}
	if err := d.FreeHost(hp); err != nil {
		t.Errorf("FreeHost(pinned): %v", err)
	}
}

func TestFreeSyncSemanticsReachHooks(t *testing.T) {
	h := &recordingHooks{}
	d, _ := newDev(t, h)
	dp, _ := d.Malloc(8)
	_ = d.Free(dp)
	dp2, _ := d.Malloc(8)
	_ = d.FreeAsync(dp2, nil)
	want := []string{"alloc:device:8", "free:device:sync=true", "alloc:device:8", "free:device:sync=false"}
	for i, w := range want {
		if h.log[i] != w {
			t.Fatalf("log[%d] = %q, want %q (full: %v)", i, h.log[i], w, h.log)
		}
	}
}

func TestStreamLifecycle(t *testing.T) {
	d, _ := newDev(t, nil)
	s := d.StreamCreate(false)
	if s.ID() == 0 || s.IsDefault() {
		t.Fatal("user stream must not be default")
	}
	nb := d.StreamCreate(true)
	if !nb.NonBlocking() {
		t.Fatal("non-blocking flag lost")
	}
	if got := len(d.Streams()); got != 3 {
		t.Fatalf("streams = %d, want 3 (default + 2)", got)
	}
	if err := d.StreamDestroy(s); err != nil {
		t.Fatal(err)
	}
	if err := d.StreamSynchronize(s); !errors.Is(err, ErrInvalidHandle) {
		t.Fatal("sync on destroyed stream must fail")
	}
	if err := d.StreamDestroy(d.DefaultStream()); !errors.Is(err, ErrInvalidValue) {
		t.Fatal("destroying default stream must fail")
	}
	if got := len(d.Streams()); got != 2 {
		t.Fatalf("streams after destroy = %d", got)
	}
}

func TestStreamFromOtherDeviceRejected(t *testing.T) {
	d1, _ := newDev(t, nil)
	d2, _ := newDev(t, nil)
	s := d1.StreamCreate(false)
	if err := d2.StreamSynchronize(s); !errors.Is(err, ErrInvalidHandle) {
		t.Fatal("foreign stream must be rejected")
	}
}

func TestEventLifecycle(t *testing.T) {
	d, _ := newDev(t, nil)
	e := d.EventCreate()
	if e.Recorded() {
		t.Fatal("fresh event must not be recorded")
	}
	// Synchronizing an unrecorded event succeeds (CUDA semantics).
	if err := d.EventSynchronize(e); err != nil {
		t.Fatal(err)
	}
	s := d.StreamCreate(false)
	if err := d.EventRecord(e, s); err != nil {
		t.Fatal(err)
	}
	if !e.Recorded() || e.Stream() != s {
		t.Fatal("record did not capture stream")
	}
	done, err := d.EventQuery(e)
	if err != nil || !done {
		t.Fatal("eager event must be complete")
	}
	if err := d.EventDestroy(e); err != nil {
		t.Fatal(err)
	}
	if err := d.EventSynchronize(e); !errors.Is(err, ErrInvalidHandle) {
		t.Fatal("sync on destroyed event must fail")
	}
}

func TestMemcpyAcrossKindsMovesData(t *testing.T) {
	d, mem := newDev(t, nil)
	h := mem.Alloc(32, memspace.KindHostPageable)
	dev, _ := d.Malloc(32)
	back := mem.Alloc(32, memspace.KindHostPageable)
	for i := int64(0); i < 4; i++ {
		mem.SetFloat64(h+memspace.Addr(i*8), float64(i)+0.25)
	}
	if err := d.Memcpy(dev, h, 32); err != nil {
		t.Fatal(err)
	}
	if err := d.Memcpy(back, dev, 32); err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 4; i++ {
		if got := mem.Float64(back + memspace.Addr(i*8)); got != float64(i)+0.25 {
			t.Fatalf("roundtrip[%d] = %v", i, got)
		}
	}
}

func TestMemcpyInvalidPointer(t *testing.T) {
	d, _ := newDev(t, nil)
	dev, _ := d.Malloc(8)
	if err := d.Memcpy(dev, memspace.Addr(12345), 8); !errors.Is(err, ErrInvalidPointer) {
		t.Fatal("memcpy from junk address must fail")
	}
	if err := d.Memcpy(dev, dev, -1); !errors.Is(err, ErrInvalidValue) {
		t.Fatal("negative size must fail")
	}
}

func TestMemsetWritesBytes(t *testing.T) {
	d, mem := newDev(t, nil)
	dev, _ := d.Malloc(16)
	if err := d.Memset(dev, 0xCD, 16); err != nil {
		t.Fatal(err)
	}
	for i := memspace.Addr(0); i < 16; i++ {
		if mem.Byte(dev+i) != 0xCD {
			t.Fatalf("byte %d not set", i)
		}
	}
}

func TestLaunchExecutesKernel(t *testing.T) {
	d, mem := newDev(t, nil)
	buf, _ := d.Malloc(10 * 8)
	for i := int64(0); i < 10; i++ {
		mem.SetFloat64(buf+memspace.Addr(i*8), float64(i))
	}
	err := d.LaunchKernel("scale", kinterp.Dim(1), kinterp.Dim(16),
		[]kinterp.Arg{kinterp.Ptr(buf), kinterp.Int(10), kinterp.F64(2.0)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 10; i++ {
		if got := mem.Float64(buf + memspace.Addr(i*8)); got != float64(2*i) {
			t.Fatalf("buf[%d] = %v", i, got)
		}
	}
}

func TestLaunchRejectsPageablePointer(t *testing.T) {
	d, mem := newDev(t, nil)
	h := mem.Alloc(80, memspace.KindHostPageable)
	err := d.LaunchKernel("scale", kinterp.Dim(1), kinterp.Dim(16),
		[]kinterp.Arg{kinterp.Ptr(h), kinterp.Int(10), kinterp.F64(2.0)}, nil)
	if !errors.Is(err, ErrInvalidPointer) {
		t.Fatalf("err = %v, want invalid pointer", err)
	}
}

func TestLaunchAcceptsManagedAndPinned(t *testing.T) {
	d, _ := newDev(t, nil)
	for _, alloc := range []func(int64) (memspace.Addr, error){d.MallocManaged, d.HostAlloc} {
		p, _ := alloc(80)
		err := d.LaunchKernel("scale", kinterp.Dim(1), kinterp.Dim(16),
			[]kinterp.Arg{kinterp.Ptr(p), kinterp.Int(10), kinterp.F64(1.0)}, nil)
		if err != nil {
			t.Fatalf("launch with %v pointer: %v", memspace.KindOf(p), err)
		}
	}
}

func TestLaunchUnknownKernel(t *testing.T) {
	d, _ := newDev(t, nil)
	if err := d.LaunchKernel("nope", kinterp.Dim(1), kinterp.Dim(1), nil, nil); !errors.Is(err, ErrInvalidValue) {
		t.Fatal("unknown kernel must fail")
	}
}

func TestLaunchHookCarriesAccessAttributes(t *testing.T) {
	var got *KernelLaunch
	h := &struct {
		BaseHooks
	}{}
	_ = h
	d, _ := newDev(t, nil)
	d.SetHooks(hookFunc(func(l *KernelLaunch) { got = l }))
	buf, _ := d.Malloc(80)
	err := d.LaunchKernel("scale", kinterp.Dim(1), kinterp.Dim(16),
		[]kinterp.Arg{kinterp.Ptr(buf), kinterp.Int(10), kinterp.F64(3.0)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got == nil {
		t.Fatal("launch hook not called")
	}
	if len(got.Access) != 3 {
		t.Fatalf("access len = %d", len(got.Access))
	}
	// scale reads and writes buf in place.
	if !got.Access[0].MayRead() || !got.Access[0].MayWrite() {
		t.Fatalf("buf access = %v, want rw", got.Access[0])
	}
	if got.Params[0].Name != "buf" {
		t.Fatalf("param name = %q", got.Params[0].Name)
	}
}

// hookFunc adapts a kernel-launch func to Hooks.
type hookFunc func(*KernelLaunch)

func (hookFunc) AllocDone(memspace.Addr, int64, memspace.Kind) {}
func (hookFunc) PreFree(memspace.Addr, memspace.Kind, bool)    {}
func (hookFunc) StreamCreated(*Stream)                         {}
func (hookFunc) StreamDestroyed(*Stream)                       {}
func (hookFunc) EventCreated(*Event)                           {}
func (hookFunc) EventDestroyed(*Event)                         {}
func (hookFunc) PreEventRecord(*Event, *Stream)                {}
func (hookFunc) PreEventSynchronize(*Event)                    {}
func (hookFunc) PreEventQuery(*Event)                          {}
func (hookFunc) PreStreamWaitEvent(*Stream, *Event)            {}
func (hookFunc) PreStreamSynchronize(*Stream)                  {}
func (hookFunc) PreStreamQuery(*Stream)                        {}
func (hookFunc) PreDeviceSynchronize()                         {}
func (f hookFunc) PreKernelLaunch(l *KernelLaunch)             { f(l) }
func (hookFunc) PreMemcpy(*MemOp)                              {}
func (hookFunc) PreMemset(*MemOp)                              {}

func TestHookSequence(t *testing.T) {
	h := &recordingHooks{}
	d, _ := newDev(t, h)
	buf, _ := d.Malloc(80)
	s := d.StreamCreate(true)
	ev := d.EventCreate()
	_ = d.LaunchKernel("scale", kinterp.Dim(1), kinterp.Dim(16),
		[]kinterp.Arg{kinterp.Ptr(buf), kinterp.Int(10), kinterp.F64(2.0)}, s)
	_ = d.EventRecord(ev, s)
	_ = d.StreamWaitEvent(d.DefaultStream(), ev)
	_ = d.StreamSynchronize(s)
	d.DeviceSynchronize()
	want := []string{
		"alloc:device:80",
		"streamCreate:1:nb=true",
		fmt.Sprintf("launch:scale:on=%d", s.ID()),
		fmt.Sprintf("eventRecord:%d:on=%d", ev.ID(), s.ID()),
		fmt.Sprintf("streamWaitEvent:0:%d", ev.ID()),
		fmt.Sprintf("streamSync:%d", s.ID()),
		"deviceSync",
	}
	if len(h.log) != len(want) {
		t.Fatalf("log = %v", h.log)
	}
	for i, w := range want {
		if h.log[i] != w {
			t.Fatalf("log[%d] = %q, want %q", i, h.log[i], w)
		}
	}
}

func TestMemOpSyncFlagsReachHooks(t *testing.T) {
	h := &recordingHooks{}
	d, mem := newDev(t, h)
	dev, _ := d.Malloc(8)
	dev2, _ := d.Malloc(8)
	host := mem.Alloc(8, memspace.KindHostPageable)
	pinned, _ := d.HostAlloc(8)

	h.log = nil
	_ = d.Memcpy(dev, host, 8)           // H2D pageable: sync
	_ = d.Memcpy(dev2, dev, 8)           // D2D: not host-sync
	_ = d.MemcpyAsync(host, dev, 8, nil) // async: never sync
	_ = d.Memset(dev, 0, 8)              // device memset: not sync
	_ = d.Memset(pinned, 0, 8)           // pinned memset: sync
	want := []string{
		"memcpy:8:sync=true",
		"memcpy:8:sync=false",
		"memcpy:8:sync=false",
		"memset:8:sync=false",
		"memset:8:sync=true",
	}
	for i, w := range want {
		if h.log[i] != w {
			t.Fatalf("log[%d] = %q, want %q (full %v)", i, h.log[i], w, h.log)
		}
	}
}

// TestCompileOncePerModule: Compile hands every caller the one program
// of a module, seals the module, and remembers a failed compile too;
// devices on one program share its analysis.
func TestCompileOncePerModule(t *testing.T) {
	m := scaleModule()
	p1, err := Compile(m)
	if err != nil {
		t.Fatal(err)
	}
	if p2, _ := Compile(m); p2 != p1 {
		t.Fatal("second Compile of one module built a new program")
	}
	if other, _ := Compile(scaleModule()); other == p1 {
		t.Fatal("two modules share a program")
	}
	d1 := NewDevice(memspace.New(), p1, Config{}, nil)
	d2 := NewDevice(memspace.New(), p1, Config{}, nil)
	if d1.Analysis() != d2.Analysis() || d1.Analysis() != p1.Analysis() {
		t.Fatal("devices on one program do not share its analysis")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Add on a compiled module did not panic")
			}
		}()
		m.Add(kir.KernelFunc("late", nil, func(*kir.Emitter) {}))
	}()

	bad := kir.NewModule()
	bad.Add(kir.KernelFunc("k", []kir.Param{{Name: "p", Type: kir.TPtrF64}}, func(e *kir.Emitter) {
		e.Store(e.Arg("p"), e.ConstI(1))
	}))
	_, err1 := Compile(bad)
	_, err2 := Compile(bad)
	if err1 == nil || err2 != err1 {
		t.Fatalf("ill-typed module: errors %v, %v; want one remembered error", err1, err2)
	}
}
