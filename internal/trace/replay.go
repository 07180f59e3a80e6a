package trace

import (
	"fmt"
	"math"
	"slices"

	"cusango/internal/cuda"
	"cusango/internal/cusan"
	"cusango/internal/kaccess"
	"cusango/internal/kinterp"
	"cusango/internal/kir"
	"cusango/internal/memspace"
	"cusango/internal/mpi"
	"cusango/internal/must"
	"cusango/internal/tsan"
	"cusango/internal/typeart"
)

// ReplayConfig tunes the offline analysis pipeline.
type ReplayConfig struct {
	// TSanCfg configures the sanitizer (Engine selects the batched or the
	// slow reference shadow engine for differential debugging).
	TSanCfg tsan.Config
	// CusanOpts configures the CuSan runtime.
	CusanOpts cusan.Options
	// MustOpts configures the MUST runtime.
	MustOpts must.Options
}

// ReplayResult is the outcome of re-analyzing one rank's trace.
type ReplayResult struct {
	Rank      int
	WorldSize int
	Label     string

	Races   int64
	Reports []*tsan.Report
	Issues  []*must.Issue

	Counters  cusan.Counters
	MustStats must.Stats
	Events    int
}

// Replay drives a recorded per-rank event stream through a fresh
// cusan/must/tsan/typeart pipeline, offline and single-threaded.
//
// Determinism: the trace holds the rank's events in the exact order the
// live pipeline's annotations ran (hooks fire on the host goroutine at
// interception time, and the taps record before forwarding). Replaying
// them in order therefore issues the identical sanitizer call sequence
// against an identical initial state, which yields identical race
// classifications and tool findings — regardless of the flavor the
// recording ran under, since the interception stream itself is
// flavor-independent. The access-info identity structure mirrors
// core.Session (one load and one store info per rank; the tool runtimes
// cache their own infos), so report deduplication matches the live run.
func Replay(tr *Trace, cfg ReplayConfig) (*ReplayResult, error) {
	r := &replayer{
		san:     tsan.New(cfg.TSanCfg),
		streams: make(map[int64]*cuda.Stream),
		events:  make(map[int64]*cuda.Event),
		reqs:    make(map[uint64]*mpi.Request),
	}
	r.ta = typeart.NewRuntime(nil)
	r.cus = cusan.New(r.san, r.ta, cfg.CusanOpts)
	r.mus = must.New(r.san, r.ta, cfg.MustOpts)
	r.loadInfo = &tsan.AccessInfo{Site: "host code", Object: "load"}
	r.storeInfo = &tsan.AccessInfo{Site: "host code", Object: "store"}

	for i := range tr.Events {
		if err := r.apply(&tr.Events[i]); err != nil {
			return nil, fmt.Errorf("trace: event %d (%s): %w", i, tr.Events[i].Op, err)
		}
	}
	return &ReplayResult{
		Rank:      tr.Header.Rank,
		WorldSize: tr.Header.WorldSize,
		Label:     tr.Header.Label,
		Races:     r.san.RaceCount(),
		Reports:   r.san.Reports(),
		Issues:    r.mus.Issues(),
		Counters:  r.cus.Counters(),
		MustStats: r.mus.Stats(),
		Events:    len(tr.Events),
	}, nil
}

type replayer struct {
	san *tsan.Sanitizer
	ta  *typeart.Runtime
	cus *cusan.Runtime
	mus *must.Runtime

	streams map[int64]*cuda.Stream
	events  map[int64]*cuda.Event
	reqs    map[uint64]*mpi.Request

	loadInfo  *tsan.AccessInfo
	storeInfo *tsan.AccessInfo

	// kl is the reused kernel-launch callback argument: the CuSan hook
	// does not retain it past the call.
	kl cuda.KernelLaunch
}

// stream returns the fabricated handle for a recorded stream id,
// creating it on first use (traces recorded before this version, or
// streams created before recording started, have no OpStreamCreated).
func (r *replayer) stream(id int64, flags uint8) *cuda.Stream {
	if s, ok := r.streams[id]; ok {
		return s
	}
	s := cuda.NewStreamHandle(int(id), flags&FlagNonBlocking != 0)
	r.streams[id] = s
	return s
}

func (r *replayer) event(id int64) *cuda.Event {
	if e, ok := r.events[id]; ok {
		return e
	}
	e := cuda.NewEventHandle(int(id))
	r.events[id] = e
	return e
}

func dtBack(dt DT) mpi.Datatype {
	return mpi.Datatype{Name: dt.Name, Size: dt.Size, TypeartID: typeart.TypeID(dt.TypeartID)}
}

// req returns the fabricated request for a recorded id. Id 0 (a request
// initiated before recording started) yields a fresh unknown handle,
// which the MUST runtime ignores in PostWait — the same no-op the live
// run performed.
func (r *replayer) req(ev *Event, kind mpi.ReqKind) *mpi.Request {
	if ev.Req == 0 {
		return mpi.NewRequestHandle(kind, 0, 0, mpi.Byte, 0, 0)
	}
	if q, ok := r.reqs[ev.Req]; ok {
		return q
	}
	q := mpi.NewRequestHandle(kind, memspace.Addr(ev.Addr), int(ev.Count), dtBack(ev.DT),
		int(ev.Peer), int(ev.Tag))
	r.reqs[ev.Req] = q
	return q
}

func (r *replayer) apply(ev *Event) error {
	switch ev.Op {
	// --- CUDA ---------------------------------------------------------
	case OpAllocDone:
		r.cus.AllocDone(memspace.Addr(ev.Addr), ev.Size, memspace.Kind(ev.Kind))
	case OpFree:
		r.cus.PreFree(memspace.Addr(ev.Addr), memspace.Kind(ev.Kind), ev.Flags&FlagSyncsHost != 0)
	case OpStreamCreated:
		r.cus.StreamCreated(r.stream(ev.Stream, ev.Flags))
	case OpStreamDestroyed:
		r.cus.StreamDestroyed(r.stream(ev.Stream, ev.Flags))
	case OpEventCreated:
		r.cus.EventCreated(r.event(ev.CudaEvt))
	case OpEventDestroyed:
		r.cus.EventDestroyed(r.event(ev.CudaEvt))
	case OpEventRecord:
		r.cus.PreEventRecord(r.event(ev.CudaEvt), r.stream(ev.Stream, ev.Flags))
	case OpEventSync:
		r.cus.PreEventSynchronize(r.event(ev.CudaEvt))
	case OpEventQuery:
		r.cus.PreEventQuery(r.event(ev.CudaEvt))
	case OpStreamWaitEvent:
		r.cus.PreStreamWaitEvent(r.stream(ev.Stream, ev.Flags), r.event(ev.CudaEvt))
	case OpStreamSync:
		r.cus.PreStreamSynchronize(r.stream(ev.Stream, ev.Flags))
	case OpStreamQuery:
		r.cus.PreStreamQuery(r.stream(ev.Stream, ev.Flags))
	case OpDeviceSync:
		r.cus.PreDeviceSynchronize()
	case OpKernelLaunch:
		r.cus.PreKernelLaunch(r.launch(ev))
	case OpMemcpy:
		r.cus.PreMemcpy(&cuda.MemOp{
			Dst: memspace.Addr(ev.Addr), Src: memspace.Addr(ev.Addr2), Bytes: ev.Size,
			DstKind: memspace.Kind(ev.Kind), SrcKind: memspace.Kind(ev.Kind2),
			Async: ev.Flags&FlagAsync != 0, SyncsHost: ev.Flags&FlagSyncsHost != 0,
			Stream: r.stream(ev.Stream, ev.Flags),
		})
	case OpMemset:
		r.cus.PreMemset(&cuda.MemOp{
			Dst: memspace.Addr(ev.Addr), Bytes: ev.Size,
			DstKind: memspace.Kind(ev.Kind), SrcKind: memspace.KindInvalid,
			Async: ev.Flags&FlagAsync != 0, SyncsHost: ev.Flags&FlagSyncsHost != 0,
			Stream: r.stream(ev.Stream, ev.Flags),
		})

	// --- MPI ----------------------------------------------------------
	case OpSend:
		r.mus.PreSend(memspace.Addr(ev.Addr), int(ev.Count), dtBack(ev.DT), int(ev.Peer), int(ev.Tag))
	case OpSendDone:
		r.mus.PostSend(memspace.Addr(ev.Addr), int(ev.Count), dtBack(ev.DT), int(ev.Peer), int(ev.Tag))
	case OpRecvPost:
		r.mus.PreRecv(memspace.Addr(ev.Addr), int(ev.Count), dtBack(ev.DT), int(ev.Peer), int(ev.Tag))
	case OpRecvDone:
		r.mus.PostRecv(memspace.Addr(ev.Addr), int(ev.Count), dtBack(ev.DT), mpi.Status{
			Source: int(ev.Src), Tag: int(ev.SrcTag), Count: int(ev.RecvCount),
		})
	case OpIsend:
		req := r.req(ev, mpi.ReqSend)
		r.mus.PreIsend(memspace.Addr(ev.Addr), int(ev.Count), dtBack(ev.DT),
			int(ev.Peer), int(ev.Tag), req)
	case OpIrecv:
		req := r.req(ev, mpi.ReqRecv)
		r.mus.PreIrecv(memspace.Addr(ev.Addr), int(ev.Count), dtBack(ev.DT),
			int(ev.Peer), int(ev.Tag), req)
	case OpWait:
		r.mus.PreWait(r.req(ev, mpi.ReqSend))
	case OpWaitDone:
		req := r.req(ev, mpi.ReqSend)
		r.mus.PostWait(req, mpi.Status{
			Source: int(ev.Src), Tag: int(ev.SrcTag), Count: int(ev.RecvCount),
		})
		delete(r.reqs, ev.Req)
	case OpCollPre:
		r.mus.PreCollective(ev.Name, memspace.Addr(ev.Addr), ev.Size,
			memspace.Addr(ev.WAddr), ev.WSize)
	case OpCollPost:
		r.mus.PostCollective(ev.Name, memspace.Addr(ev.Addr), ev.Size,
			memspace.Addr(ev.WAddr), ev.WSize)
	case OpFinalize:
		r.mus.PreFinalize()

	// --- host instrumentation -----------------------------------------
	case OpHostRead:
		r.san.Read(memspace.Addr(ev.Addr), int(ev.Size), r.loadInfo)
	case OpHostWrite:
		r.san.Write(memspace.Addr(ev.Addr), int(ev.Size), r.storeInfo)
	case OpHostReadRange:
		r.san.ReadRange(memspace.Addr(ev.Addr), ev.Size, r.loadInfo)
	case OpHostWriteRange:
		r.san.WriteRange(memspace.Addr(ev.Addr), ev.Size, r.storeInfo)
	case OpTypedAlloc:
		// Mirror core.Session.track: refine an allocation CuSan already
		// registered untyped, or track a fresh host allocation.
		a := memspace.Addr(ev.Addr)
		if _, _, ok := r.ta.Lookup(a); ok {
			_ = r.ta.Retype(a, typeart.TypeID(ev.TypeID), ev.Count)
		} else {
			_ = r.ta.Track(a, typeart.TypeID(ev.TypeID), ev.Count, memspace.Kind(ev.Kind))
		}
	default:
		return fmt.Errorf("unsupported op %d", ev.Op)
	}
	return nil
}

// launch rebuilds the instrumented kernel-launch callback argument in
// the replayer's reused launch.
func (r *replayer) launch(ev *Event) *cuda.KernelLaunch {
	l := &r.kl
	n := len(ev.Args)
	*l = cuda.KernelLaunch{
		Name:   ev.Name,
		Grid:   kinterp.Dim2(int(ev.GridX), int(ev.GridY)),
		Block:  kinterp.Dim2(int(ev.BlockX), int(ev.BlockY)),
		Args:   slices.Grow(l.Args[:0], n)[:n],
		Params: slices.Grow(l.Params[:0], n)[:n],
		Access: slices.Grow(l.Access[:0], n)[:n],
		Stream: r.stream(ev.Stream, ev.Flags),
	}
	for i := range ev.Args {
		a := &ev.Args[i]
		l.Args[i] = kinterp.Arg{
			Kind: kinterp.ArgKind(a.Kind),
			F:    math.Float64frombits(a.Bits),
			I:    a.Int,
			Ptr:  memspace.Addr(a.Ptr),
		}
		l.Params[i] = kir.Param{Name: a.Param}
		l.Access[i] = kaccess.Access(a.Access)
	}
	return l
}
