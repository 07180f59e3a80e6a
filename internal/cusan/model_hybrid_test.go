package cusan

import (
	"fmt"
	"math/rand"
	"testing"

	"cusango/internal/cuda"
	"cusango/internal/memspace"
	"cusango/internal/mpi"
	"cusango/internal/must"
	"cusango/internal/tsan"
	"cusango/internal/typeart"
)

// Hybrid differential testing: the random programs of model_test.go
// extended with non-blocking MPI (Isend/Irecv/Wait through MUST's fiber
// protocol), so cross-domain races — a kernel against an in-flight MPI
// operation, the paper's core subject — are compared against the graph
// oracle too.

const (
	hOpIsend = int(numOpKinds) + iota
	hOpIrecv
	hOpWait
	numHybridOps
)

// maxOutstanding bounds in-flight requests so the shadow cannot evict a
// live accessor (host + 3 stream fibers + requests <= cells).
const maxOutstanding = 3

type hybridOp struct {
	kind   int
	stream int
	buf    int
	event  int
}

type hybridScenario struct {
	ops         []hybridOp
	nonBlocking []bool
	nIrecv      int
	nIsend      int
}

func genHybridScenario(r *rand.Rand, nOps int) hybridScenario {
	sc := hybridScenario{nonBlocking: []bool{false, false, true}}
	outstanding := 0
	for i := 0; i < nOps; i++ {
		op := hybridOp{
			kind:   r.Intn(numHybridOps),
			stream: r.Intn(3),
			buf:    r.Intn(2),
			event:  r.Intn(2),
		}
		switch op.kind {
		case hOpIsend, hOpIrecv:
			if outstanding >= maxOutstanding {
				op.kind = hOpWait
			} else {
				outstanding++
				if op.kind == hOpIsend {
					sc.nIsend++
				} else {
					sc.nIrecv++
				}
			}
		}
		if op.kind == hOpWait {
			if outstanding == 0 {
				continue // nothing to wait for; drop the op
			}
			outstanding--
		}
		sc.ops = append(sc.ops, op)
	}
	// Complete every outstanding request (clean finalize).
	for ; outstanding > 0; outstanding-- {
		sc.ops = append(sc.ops, hybridOp{kind: hOpWait})
	}
	return sc
}

// hybridOracle extends the CUDA oracle with MPI request fibers.
func hybridOracleVerdict(sc hybridScenario) bool {
	o := newOracle(sc.nonBlocking)
	recorded := []bool{false, false}
	var pending []int // FIFO of request nodes
	for _, op := range sc.ops {
		switch op.kind {
		case hOpIsend, hOpIrecv:
			// MUST's protocol: the request fiber inherits host program
			// order at initiation (SwitchFiberSync) and annotates the
			// buffer there; no stream interaction.
			n := o.newNode()
			o.edge(o.lastHost, n)
			o.accesses = append(o.accesses, accessRec{
				node: n, buf: op.buf, write: op.kind == hOpIrecv,
			})
			pending = append(pending, n)
		case hOpWait:
			n := pending[0]
			pending = pending[1:]
			h := o.hostStep()
			o.edge(n, h)
		default:
			g := genOp{kind: opKind(op.kind), stream: op.stream, buf: op.buf, event: op.event}
			switch g.kind {
			case opEventRecord:
				recorded[op.event] = true
				o.apply(g)
			case opEventSync, opStreamWaitEvent:
				if recorded[op.event] {
					o.apply(g)
				}
			default:
				o.apply(g)
			}
		}
	}
	return o.hasRace()
}

// runHybridScenario drives the program through the full MUST & CuSan
// stack with a cooperative peer rank.
func runHybridScenario(t *testing.T, sc hybridScenario) bool {
	t.Helper()
	w := mpi.NewWorld(2)
	mem := memspace.New()
	san := tsan.New(tsan.Config{CellsPerGranule: 8, MaxReports: 1024})
	ta := typeart.NewRuntime(nil)
	cs := New(san, ta, Options{})
	dev := cuda.NewDevice(mem, testProgram(t), cuda.Config{}, cs)
	mu := must.New(san, ta, Options2MustOpts())
	comm, err := w.AttachRank(0, mem, mu)
	if err != nil {
		t.Fatal(err)
	}
	e := &env{san: san, ta: ta, rt: cs, dev: dev, mem: mem}

	// Cooperative peer: sends everything our Irecvs need up front
	// (buffered transport), then drains our Isends.
	peerDone := make(chan error, 1)
	go func() {
		peerDone <- func() error {
			peerMem := memspace.New()
			pc, err := w.AttachRank(1, peerMem, nil)
			if err != nil {
				return err
			}
			out := peerMem.Alloc(n*8, memspace.KindHostPageable)
			for i := 0; i < sc.nIrecv; i++ {
				if err := pc.Send(out, n, mpi.Float64, 0, 100+i); err != nil {
					return err
				}
			}
			for i := 0; i < sc.nIsend; i++ {
				if _, err := pc.Recv(out, n, mpi.Float64, 0, 200+i); err != nil {
					return err
				}
			}
			return nil
		}()
	}()

	bufs := []memspace.Addr{e.allocDev(t), e.allocDev(t)}
	host := mem.Alloc(n*8, memspace.KindHostPageable)
	streams := []*cuda.Stream{nil, dev.StreamCreate(false), dev.StreamCreate(true)}
	events := []*cuda.Event{dev.EventCreate(), dev.EventCreate()}
	var pending []*mpi.Request
	irecvs, isends := 0, 0

	for _, op := range sc.ops {
		switch op.kind {
		case hOpIsend:
			req, err := comm.Isend(bufs[op.buf], n, mpi.Float64, 1, 200+isends)
			if err != nil {
				t.Fatal(err)
			}
			isends++
			pending = append(pending, req)
		case hOpIrecv:
			req, err := comm.Irecv(bufs[op.buf], n, mpi.Float64, 1, 100+irecvs)
			if err != nil {
				t.Fatal(err)
			}
			irecvs++
			pending = append(pending, req)
		case hOpWait:
			req := pending[0]
			pending = pending[1:]
			if _, err := comm.Wait(req); err != nil {
				t.Fatal(err)
			}
		case int(opLaunchWrite):
			e.launch(t, "writer", streams[op.stream], bufs[op.buf])
		case int(opLaunchRead):
			out := e.allocDev(t)
			e.launch(t, "reader", streams[op.stream], out, bufs[op.buf])
		case int(opStreamSync):
			if err := dev.StreamSynchronize(streams[op.stream]); err != nil {
				t.Fatal(err)
			}
		case int(opDeviceSync):
			dev.DeviceSynchronize()
		case int(opEventRecord):
			if err := dev.EventRecord(events[op.event], streams[op.stream]); err != nil {
				t.Fatal(err)
			}
		case int(opEventSync):
			if err := dev.EventSynchronize(events[op.event]); err != nil {
				t.Fatal(err)
			}
		case int(opStreamWaitEvent):
			if err := dev.StreamWaitEvent(streams[op.stream], events[op.event]); err != nil {
				t.Fatal(err)
			}
		case int(opMemcpyD2H):
			var err error
			if streams[op.stream] == nil {
				err = dev.Memcpy(host, bufs[op.buf], n*8)
			} else {
				if err = dev.MemcpyAsync(host, bufs[op.buf], n*8, streams[op.stream]); err == nil {
					err = dev.StreamSynchronize(streams[op.stream])
				}
			}
			if err != nil {
				t.Fatal(err)
			}
		case int(opHostRead):
			e.hostRead(bufs[op.buf])
		case int(opHostWrite):
			e.hostWrite(bufs[op.buf])
		}
	}
	if err := <-peerDone; err != nil {
		t.Fatal(err)
	}
	return san.RaceCount() > 0
}

// Options2MustOpts returns the MUST options for the differential rig
// (type checks off: buffers are tracked as raw cuda allocations and the
// oracle does not model findings).
func Options2MustOpts() must.Options {
	return must.Options{DisableTypeChecks: true}
}

// TestModelDifferentialHybrid compares 300 random hybrid programs.
func TestModelDifferentialHybrid(t *testing.T) {
	for seed := int64(1000); seed < 1300; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			r := rand.New(rand.NewSource(seed))
			sc := genHybridScenario(r, 5+r.Intn(12))
			want := hybridOracleVerdict(sc)
			got := runHybridScenario(t, sc)
			if got != want {
				t.Fatalf("detector=%v oracle=%v\nops: %+v", got, want, sc.ops)
			}
		})
	}
}
