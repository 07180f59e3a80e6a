package cusan

import (
	"fmt"
	"math/rand"
	"testing"

	"cusango/internal/cuda"
	"cusango/internal/memspace"
	"cusango/internal/tsan"
	"cusango/internal/typeart"
)

// Model-based differential testing: generate random single-rank CUDA
// programs (launches, syncs, events, memcpys, host accesses) and compare
// the detector's verdict against an independent oracle that models the
// same semantics as an explicit happens-before GRAPH with reachability —
// no vector clocks, no shadow memory, no sampling. Divergence in either
// direction is a bug in one of the two models.

// opKind enumerates generated operations.
type opKind int

const (
	opLaunchWrite opKind = iota
	opLaunchRead
	opStreamSync
	opDeviceSync
	opEventRecord
	opEventSync
	opStreamWaitEvent
	opMemcpyD2H // synchronous: implicit host sync
	opHostRead
	opHostWrite
	numOpKinds
)

// genOp is one generated operation.
type genOp struct {
	kind   opKind
	stream int // stream index into the scenario's streams (device ops)
	buf    int // buffer index (accessing ops)
	event  int // event index (event ops)
}

func (g genOp) String() string {
	return fmt.Sprintf("{k=%d s=%d b=%d e=%d}", g.kind, g.stream, g.buf, g.event)
}

// scenario is a random program over fixed resources.
type scenario struct {
	ops []genOp
	// streams[i]: 0 = default, others user; nonBlocking flags.
	nonBlocking []bool
}

func genScenario(r *rand.Rand, nOps int) scenario {
	sc := scenario{
		// default stream + one blocking + one non-blocking user stream.
		nonBlocking: []bool{false, false, true},
	}
	for i := 0; i < nOps; i++ {
		sc.ops = append(sc.ops, genOp{
			kind:   opKind(r.Intn(int(numOpKinds))),
			stream: r.Intn(3),
			buf:    r.Intn(2),
			event:  r.Intn(2),
		})
	}
	return sc
}

// --- oracle ---------------------------------------------------------------

// node is one schedulable unit in the oracle graph: a device operation
// or a host segment boundary.
type accessRec struct {
	node  int
	buf   int
	write bool
}

type oracle struct {
	nEdges   [][]int // adjacency: edges[a] -> b  means a happens-before b
	accesses []accessRec
	// lastOnStream is the most recent device node per stream.
	lastOnStream []int
	// lastHost is the most recent host node (program order chain).
	lastHost int
	// eventNode maps event index -> device node captured at record (-1 none).
	eventNode []int
	nodes     int
	nb        []bool
}

func newOracle(nb []bool) *oracle {
	o := &oracle{
		lastOnStream: make([]int, len(nb)),
		eventNode:    []int{-1, -1},
		nb:           nb,
	}
	for i := range o.lastOnStream {
		o.lastOnStream[i] = -1
	}
	// node 0: initial host segment.
	o.lastHost = o.newNode()
	return o
}

func (o *oracle) newNode() int {
	o.nEdges = append(o.nEdges, nil)
	o.nodes++
	return o.nodes - 1
}

func (o *oracle) edge(from, to int) {
	if from >= 0 && to >= 0 && from != to {
		o.nEdges[from] = append(o.nEdges[from], to)
	}
}

// deviceOp adds a device node on stream s with FIFO, host->device, and
// legacy default-stream ordering.
func (o *oracle) deviceOp(s int) int {
	n := o.newNode()
	o.edge(o.lastOnStream[s], n) // FIFO
	o.edge(o.lastHost, n)        // launch carries host program order
	if !o.nb[s] {
		if s == 0 {
			// default-stream op waits for all blocking user streams.
			for t := 1; t < len(o.nb); t++ {
				if !o.nb[t] {
					o.edge(o.lastOnStream[t], n)
				}
			}
		} else {
			// blocking user-stream op waits for prior default work.
			o.edge(o.lastOnStream[0], n)
		}
	}
	o.lastOnStream[s] = n
	return n
}

// hostStep starts a new host segment ordered after the previous one.
func (o *oracle) hostStep() int {
	n := o.newNode()
	o.edge(o.lastHost, n)
	o.lastHost = n
	return n
}

// syncStream orders all prior work of stream s before subsequent host
// segments, with CuSan's documented arc semantics (paper §V-A): a
// default-stream operation starts a happens-before arc on every blocking
// stream, so synchronizing a blocking user stream also covers prior
// default-stream work — and synchronizing the default stream covers all
// blocking streams (paper §IV-A(e)).
func (o *oracle) syncStream(s int) {
	h := o.hostStep()
	o.edge(o.lastOnStream[s], h)
	if s == 0 {
		for t := 1; t < len(o.nb); t++ {
			if !o.nb[t] {
				o.edge(o.lastOnStream[t], h)
			}
		}
	} else if !o.nb[s] {
		o.edge(o.lastOnStream[0], h)
	}
}

func (o *oracle) apply(op genOp) {
	switch op.kind {
	case opLaunchWrite, opLaunchRead:
		n := o.deviceOp(op.stream)
		o.accesses = append(o.accesses, accessRec{node: n, buf: op.buf, write: op.kind == opLaunchWrite})
	case opStreamSync:
		o.syncStream(op.stream)
	case opDeviceSync:
		h := o.hostStep()
		for s := range o.nb {
			o.edge(o.lastOnStream[s], h)
		}
	case opEventRecord:
		// The event adopts the stream's current tail.
		o.eventNode[op.event] = o.lastOnStream[op.stream]
	case opEventSync:
		h := o.hostStep()
		o.edge(o.eventNode[op.event], h)
	case opStreamWaitEvent:
		// Future work on the stream is ordered after the recorded point:
		// insert a marker device op carrying the dependency (it performs
		// no access). The marker participates in legacy barriers exactly
		// like any other enqueued op.
		n := o.deviceOp(op.stream)
		o.edge(o.eventNode[op.event], n)
	case opMemcpyD2H:
		// The copy reads the buffer on its stream, then host-syncs that
		// stream (and the default-stream barrier rules are those of a
		// device op on that stream).
		n := o.deviceOp(op.stream)
		o.accesses = append(o.accesses, accessRec{node: n, buf: op.buf, write: false})
		o.syncStream(op.stream)
	case opHostRead, opHostWrite:
		h := o.hostStep()
		o.accesses = append(o.accesses, accessRec{node: h, buf: op.buf, write: op.kind == opHostWrite})
	}
}

// reach computes reachability from each node (small graphs: BFS each).
func (o *oracle) reach() [][]bool {
	r := make([][]bool, o.nodes)
	for s := 0; s < o.nodes; s++ {
		seen := make([]bool, o.nodes)
		stack := []int{s}
		for len(stack) > 0 {
			n := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, m := range o.nEdges[n] {
				if !seen[m] {
					seen[m] = true
					stack = append(stack, m)
				}
			}
		}
		r[s] = seen
	}
	return r
}

// hasRace reports whether any conflicting access pair is unordered.
func (o *oracle) hasRace() bool {
	r := o.reach()
	for i := 0; i < len(o.accesses); i++ {
		for j := i + 1; j < len(o.accesses); j++ {
			a, b := o.accesses[i], o.accesses[j]
			if a.buf != b.buf || (!a.write && !b.write) || a.node == b.node {
				continue
			}
			if !r[a.node][b.node] && !r[b.node][a.node] {
				return true
			}
		}
	}
	return false
}

// --- execution against the real detector -----------------------------------

// runScenario drives the generated program through the instrumented CUDA
// runtime and returns the detector's verdict.
func runScenario(t *testing.T, sc scenario) bool {
	t.Helper()
	mem := memspace.New()
	// 4 shadow cells: the scenario has at most 4 concurrent contexts
	// (host + 3 stream fibers), so the shadow cannot evict a live
	// accessor and the comparison is exact.
	san := tsan.New(tsan.Config{CellsPerGranule: 4, MaxReports: 1024})
	e := newEnvWith(t, mem, san, Options{})

	bufs := []memspace.Addr{e.allocDev(t), e.allocDev(t)}
	host := mem.Alloc(n*8, memspace.KindHostPageable)
	streams := []*cuda.Stream{nil, e.dev.StreamCreate(false), e.dev.StreamCreate(true)}
	events := []*cuda.Event{e.dev.EventCreate(), e.dev.EventCreate()}
	recorded := []bool{false, false}

	for _, op := range sc.ops {
		switch op.kind {
		case opLaunchWrite:
			e.launch(t, "writer", streams[op.stream], bufs[op.buf])
		case opLaunchRead:
			out := e.allocDev(t) // fresh, conflict-free output
			e.launch(t, "reader", streams[op.stream], out, bufs[op.buf])
		case opStreamSync:
			if err := e.dev.StreamSynchronize(streams[op.stream]); err != nil {
				t.Fatal(err)
			}
		case opDeviceSync:
			e.dev.DeviceSynchronize()
		case opEventRecord:
			if err := e.dev.EventRecord(events[op.event], streams[op.stream]); err != nil {
				t.Fatal(err)
			}
			recorded[op.event] = true
		case opEventSync:
			if err := e.dev.EventSynchronize(events[op.event]); err != nil {
				t.Fatal(err)
			}
		case opStreamWaitEvent:
			if err := e.dev.StreamWaitEvent(streams[op.stream], events[op.event]); err != nil {
				t.Fatal(err)
			}
		case opMemcpyD2H:
			var err error
			if streams[op.stream] == nil {
				err = e.dev.Memcpy(host, bufs[op.buf], n*8)
			} else {
				// Async on a stream does not host-sync; the oracle models
				// the synchronous default-stream variant, so force it:
				// memcpy + streamSync on that stream.
				if err = e.dev.MemcpyAsync(host, bufs[op.buf], n*8, streams[op.stream]); err == nil {
					err = e.dev.StreamSynchronize(streams[op.stream])
				}
			}
			if err != nil {
				t.Fatal(err)
			}
		case opHostRead:
			e.hostRead(bufs[op.buf])
		case opHostWrite:
			e.hostWrite(bufs[op.buf])
		}
	}
	return san.RaceCount() > 0
}

// oracleVerdict evaluates the same scenario in the graph model. The
// memcpy host-write to the staging buffer is excluded from both sides
// (the staging buffer is never otherwise accessed).
func oracleVerdict(sc scenario) bool {
	o := newOracle(sc.nonBlocking)
	recorded := []bool{false, false}
	for _, op := range sc.ops {
		switch op.kind {
		case opEventRecord:
			recorded[op.event] = true
			o.apply(op)
		case opEventSync, opStreamWaitEvent:
			if !recorded[op.event] {
				continue // unrecorded events are no-ops in both models
			}
			o.apply(op)
		default:
			o.apply(op)
		}
	}
	return o.hasRace()
}

// TestModelDifferential compares 400 random programs.
func TestModelDifferential(t *testing.T) {
	for seed := int64(0); seed < 400; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			r := rand.New(rand.NewSource(seed))
			sc := genScenario(r, 4+r.Intn(12))
			want := oracleVerdict(sc)
			got := runScenario(t, sc)
			if got != want {
				t.Fatalf("detector=%v oracle=%v\nscenario: %v", got, want, sc.ops)
			}
		})
	}
}

// newEnvWith builds the env around a caller-supplied sanitizer.
func newEnvWith(t *testing.T, mem *memspace.Memory, san *tsan.Sanitizer, opts Options) *env {
	t.Helper()
	ta := typeart.NewRuntime(nil)
	rt := New(san, ta, opts)
	dev := cuda.NewDevice(mem, testProgram(t), cuda.Config{}, rt)
	return &env{san: san, ta: ta, rt: rt, dev: dev, mem: mem}
}
