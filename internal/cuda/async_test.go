package cuda

import (
	"testing"
	"time"

	"cusango/internal/kinterp"
	"cusango/internal/kir"
	"cusango/internal/memspace"
	"cusango/internal/raceflag"
)

// asyncModule has a kernel whose native implementation can be throttled
// so tests can observe genuine overlap.
func asyncModule() *kir.Module {
	m := kir.NewModule()
	m.Add(kir.KernelFunc("fill7", []kir.Param{
		{Name: "buf", Type: kir.TPtrF64},
		{Name: "n", Type: kir.TInt},
	}, func(e *kir.Emitter) {
		i := e.GlobalIDX()
		e.If(e.Lt(i, e.Arg("n")), func() {
			e.StoreIdx(e.Arg("buf"), i, e.ConstF(7))
		})
	}))
	return m
}

func newAsyncDev(t *testing.T) (*Device, *memspace.Memory) {
	t.Helper()
	mem := memspace.New()
	prog, err := Compile(asyncModule())
	if err != nil {
		t.Fatal(err)
	}
	d := NewDevice(mem, prog, Config{AsyncStreams: true}, nil)
	t.Cleanup(d.Close)
	return d, mem
}

// slowFill registers a native kernel that sleeps before filling, so the
// host provably runs ahead of the device.
func slowFill(started chan<- struct{}, delay time.Duration) kinterp.ThreadRange {
	return func(g kinterp.Geometry, lo, hi int, args []kinterp.Arg, view *memspace.View, _ *kinterp.Reduction) error {
		if started != nil {
			select {
			case started <- struct{}{}:
			default:
			}
		}
		time.Sleep(delay)
		n := args[1].I
		buf, err := view.Float64s(args[0].Ptr, n)
		if err != nil {
			return err
		}
		for lin := lo; lin < hi; lin++ {
			gx, _ := g.Thread(lin)
			if int64(gx) < n {
				buf[gx] = 7
			}
		}
		return nil
	}
}

func TestAsyncLaunchReturnsBeforeCompletion(t *testing.T) {
	d, mem := newAsyncDev(t)
	if err := d.RegisterNative("fill7", slowFill(nil, 30*time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	buf, _ := d.Malloc(8 * 8)
	start := time.Now()
	if err := d.LaunchKernel("fill7", kinterp.Dim(1), kinterp.Dim(8),
		[]kinterp.Arg{kinterp.Ptr(buf), kinterp.Int(8)}, nil); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 20*time.Millisecond {
		t.Fatalf("launch blocked for %v; async launches must return immediately", elapsed)
	}
	// Before synchronization the buffer may still be zero; after
	// DeviceSynchronize it must be filled.
	d.DeviceSynchronize()
	if got := mem.Float64(buf); got != 7 {
		t.Fatalf("after deviceSync buf[0] = %v", got)
	}
}

func TestAsyncStreamSynchronizeBlocksUntilDone(t *testing.T) {
	d, mem := newAsyncDev(t)
	if err := d.RegisterNative("fill7", slowFill(nil, 20*time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	s := d.StreamCreate(true)
	buf, _ := d.Malloc(8 * 8)
	if err := d.LaunchKernel("fill7", kinterp.Dim(1), kinterp.Dim(8),
		[]kinterp.Arg{kinterp.Ptr(buf), kinterp.Int(8)}, s); err != nil {
		t.Fatal(err)
	}
	if err := d.StreamSynchronize(s); err != nil {
		t.Fatal(err)
	}
	if got := mem.Float64(buf + 56); got != 7 {
		t.Fatalf("after streamSync buf[7] = %v", got)
	}
}

func TestAsyncStreamQueryReflectsProgress(t *testing.T) {
	d, _ := newAsyncDev(t)
	started := make(chan struct{}, 1)
	if err := d.RegisterNative("fill7", slowFill(started, 40*time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	s := d.StreamCreate(true)
	buf, _ := d.Malloc(8)
	if err := d.LaunchKernel("fill7", kinterp.Dim(1), kinterp.Dim(1),
		[]kinterp.Arg{kinterp.Ptr(buf), kinterp.Int(1)}, s); err != nil {
		t.Fatal(err)
	}
	<-started // kernel is provably running
	done, err := d.StreamQuery(s)
	if err != nil {
		t.Fatal(err)
	}
	if done {
		t.Fatal("query reported completion while the kernel sleeps")
	}
	if err := d.StreamSynchronize(s); err != nil {
		t.Fatal(err)
	}
	done, err = d.StreamQuery(s)
	if err != nil || !done {
		t.Fatalf("query after sync: done=%v err=%v", done, err)
	}
}

func TestAsyncEventOrdering(t *testing.T) {
	d, mem := newAsyncDev(t)
	if err := d.RegisterNative("fill7", slowFill(nil, 15*time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	s1 := d.StreamCreate(true)
	s2 := d.StreamCreate(true)
	buf, _ := d.Malloc(8 * 8)
	out := mem.Alloc(8*8, memspace.KindHostPageable)
	ev := d.EventCreate()
	if err := d.LaunchKernel("fill7", kinterp.Dim(1), kinterp.Dim(8),
		[]kinterp.Arg{kinterp.Ptr(buf), kinterp.Int(8)}, s1); err != nil {
		t.Fatal(err)
	}
	if err := d.EventRecord(ev, s1); err != nil {
		t.Fatal(err)
	}
	if err := d.StreamWaitEvent(s2, ev); err != nil {
		t.Fatal(err)
	}
	// The copy on s2 must observe the fill from s1 thanks to the event.
	if err := d.MemcpyAsync(out, buf, 64, s2); err != nil {
		t.Fatal(err)
	}
	if err := d.StreamSynchronize(s2); err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 8; i++ {
		if got := mem.Float64(out + memspace.Addr(i*8)); got != 7 {
			t.Fatalf("out[%d] = %v; streamWaitEvent did not order", i, got)
		}
	}
}

func TestAsyncEventSynchronize(t *testing.T) {
	d, mem := newAsyncDev(t)
	if err := d.RegisterNative("fill7", slowFill(nil, 15*time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	s := d.StreamCreate(true)
	buf, _ := d.Malloc(8)
	ev := d.EventCreate()
	if err := d.LaunchKernel("fill7", kinterp.Dim(1), kinterp.Dim(1),
		[]kinterp.Arg{kinterp.Ptr(buf), kinterp.Int(1)}, s); err != nil {
		t.Fatal(err)
	}
	if err := d.EventRecord(ev, s); err != nil {
		t.Fatal(err)
	}
	if err := d.EventSynchronize(ev); err != nil {
		t.Fatal(err)
	}
	if got := mem.Float64(buf); got != 7 {
		t.Fatalf("after eventSync buf = %v", got)
	}
}

func TestAsyncLegacyDefaultStreamBarrier(t *testing.T) {
	// A default-stream memcpy must wait for prior work on a BLOCKING
	// user stream (paper Fig. 3), even in async mode.
	d, mem := newAsyncDev(t)
	if err := d.RegisterNative("fill7", slowFill(nil, 15*time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	bs := d.StreamCreate(false) // blocking
	buf, _ := d.Malloc(8 * 8)
	out := mem.Alloc(8*8, memspace.KindHostPageable)
	if err := d.LaunchKernel("fill7", kinterp.Dim(1), kinterp.Dim(8),
		[]kinterp.Arg{kinterp.Ptr(buf), kinterp.Int(8)}, bs); err != nil {
		t.Fatal(err)
	}
	// Synchronous D2H memcpy on the default stream: blocks the host AND
	// waits for the blocking stream's kernel.
	if err := d.Memcpy(out, buf, 64); err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 8; i++ {
		if got := mem.Float64(out + memspace.Addr(i*8)); got != 7 {
			t.Fatalf("out[%d] = %v; legacy barrier not enforced", i, got)
		}
	}
}

func TestAsyncNonBlockingStreamSkipsBarrier(t *testing.T) {
	// A default-stream op does NOT wait for a non-blocking stream: the
	// copy may see stale zeros. We only check that it completes and that
	// a later sync sees the fill (no hang, no corruption).
	if raceflag.Enabled {
		t.Skip("deliberately racy program on the async executor")
	}
	d, mem := newAsyncDev(t)
	if err := d.RegisterNative("fill7", slowFill(nil, 25*time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	nb := d.StreamCreate(true)
	buf, _ := d.Malloc(8)
	out := mem.Alloc(8, memspace.KindHostPageable)
	if err := d.LaunchKernel("fill7", kinterp.Dim(1), kinterp.Dim(1),
		[]kinterp.Arg{kinterp.Ptr(buf), kinterp.Int(1)}, nb); err != nil {
		t.Fatal(err)
	}
	if err := d.Memcpy(out, buf, 8); err != nil {
		t.Fatal(err)
	}
	d.DeviceSynchronize()
	if got := mem.Float64(buf); got != 7 {
		t.Fatalf("kernel result lost: %v", got)
	}
}

func TestAsyncErrorSurfacesAtSync(t *testing.T) {
	d, _ := newAsyncDev(t)
	buf, _ := d.Malloc(8)
	// n=100 over a 1-element buffer: device-side OOB, interpreted mode.
	if err := d.LaunchKernel("fill7", kinterp.Dim(1), kinterp.Dim(128),
		[]kinterp.Arg{kinterp.Ptr(buf), kinterp.Int(100)}, nil); err != nil {
		t.Fatal(err)
	}
	d.DeviceSynchronize()
	// The sticky error must be observable (launch itself returned nil).
	deadline := time.After(time.Second)
	for {
		if err := d.AsyncError(); err != nil {
			return
		}
		select {
		case <-deadline:
			t.Fatal("async launch error never surfaced")
		case <-time.After(time.Millisecond):
		}
	}
}

func TestAsyncFreeDrains(t *testing.T) {
	d, mem := newAsyncDev(t)
	if err := d.RegisterNative("fill7", slowFill(nil, 15*time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	buf, _ := d.Malloc(8)
	other, _ := d.Malloc(8)
	if err := d.LaunchKernel("fill7", kinterp.Dim(1), kinterp.Dim(1),
		[]kinterp.Arg{kinterp.Ptr(buf), kinterp.Int(1)}, nil); err != nil {
		t.Fatal(err)
	}
	if err := d.Free(other); err != nil { // device-wide sync
		t.Fatal(err)
	}
	if got := mem.Float64(buf); got != 7 {
		t.Fatalf("Free did not synchronize: buf = %v", got)
	}
}

func TestAsyncCloseIdempotentAndEagerNoop(t *testing.T) {
	d, _ := newAsyncDev(t)
	d.Close()
	d.Close() // second close must not panic
	eager, _ := newDev(t, nil)
	eager.Close() // eager-mode no-op
}
