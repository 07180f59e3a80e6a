package cuda

import (
	"fmt"

	"cusango/internal/faults"
	"cusango/internal/kinterp"
	"cusango/internal/memspace"
)

// LaunchKernel enqueues kernel name on stream s (nil means the default
// stream) and, in this eager simulation, executes it immediately
// (cudaLaunchKernel via the generated device stub, paper Fig. 9).
//
// The pre-launch hook receives the argument values together with their
// read/write access attributes from the device-code analysis — the
// callback the CuSan compiler pass inserts before cudaLaunchKernel.
func (d *Device) LaunchKernel(name string, grid, block kinterp.Dim3, args []kinterp.Arg, s *Stream) error {
	ss, err := d.checkStream(s)
	if err != nil {
		return err
	}
	f := d.eng.Module().Func(name)
	if f == nil || !f.Kernel {
		return fmt.Errorf("%w: no kernel %q in module", ErrInvalidValue, name)
	}
	// Device code can only dereference device-accessible memory: reject
	// pageable host pointers at launch, as a real launch would fault.
	for i, a := range args {
		if a.Kind != kinterp.ArgPtr || !f.Params[i].Type.IsPtr() {
			continue
		}
		if a.Ptr == 0 {
			continue // null pointers are launchable; dereference faults
		}
		if k := memspace.KindOf(a.Ptr); !k.IsDeviceAccessible() {
			return fmt.Errorf("%w: kernel %q arg %d (%s) is %v memory",
				ErrInvalidPointer, name, i, f.Params[i].Name, k)
		}
	}
	// An injected launch failure fires before the instrumentation hook:
	// the tool must never account for work that was never enqueued.
	if flt := d.cfg.Inject.Fire(faults.CudaLaunch); flt != nil {
		return fmt.Errorf("%w: kernel %q (%w)", ErrLaunchFailure, name, flt)
	}
	l := &KernelLaunch{
		Name:   name,
		Grid:   grid,
		Block:  block,
		Args:   args,
		Params: f.Params,
		Access: d.analysis.KernelArgs(name),
		Stream: ss,
	}
	d.hooks.PreKernelLaunch(l)
	if d.cfg.AsyncStreams {
		return d.asyncLaunch(name, grid, block, args, ss)
	}
	return d.eng.Launch(name, grid, block, args, d.mem)
}

// RegisterNative installs a native (compiled) implementation for a
// kernel; execution uses it while the compiler analysis continues to
// work on the kernel IR (paper Fig. 7's split between analyzed IR and
// executed machine code).
func (d *Device) RegisterNative(name string, fn kinterp.ThreadRange) error {
	return d.eng.RegisterNative(name, fn)
}
