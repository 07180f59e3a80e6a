package mpi

import (
	"errors"
	"strings"
	"testing"

	"cusango/internal/faults"
	"cusango/internal/memspace"
)

// attach builds a world of n ranks with plain memories and returns the
// comms (no hooks, no injectors).
func attach(t *testing.T, w *World) []*Comm {
	t.Helper()
	comms := make([]*Comm, w.Size())
	for i := range comms {
		c, err := w.AttachRank(i, memspace.New(), nil)
		if err != nil {
			t.Fatal(err)
		}
		comms[i] = c
	}
	return comms
}

// TestAbortUnblocksRecv: a rank blocked in Recv unblocks with ErrAborted
// when another rank aborts the job.
func TestAbortUnblocksRecv(t *testing.T) {
	w := NewWorld(2)
	comms := attach(t, w)
	buf := comms[0].mem.Alloc(64, memspace.KindHostPageable)
	errCh := make(chan error, 1)
	go func() {
		_, err := comms[0].Recv(buf, 8, Float64, 1, 0)
		errCh <- err
	}()
	w.Abort(1, errors.New("rank died"))
	err := <-errCh
	if !errors.Is(err, ErrAborted) {
		t.Fatalf("Recv returned %v, want ErrAborted", err)
	}
	// Future calls fail fast too.
	if err := comms[0].Barrier(); !errors.Is(err, ErrAborted) {
		t.Fatalf("post-abort Barrier returned %v, want ErrAborted", err)
	}
	if w.Aborted() == nil {
		t.Fatal("Aborted() nil after abort")
	}
}

// TestAbortUnblocksCollective: a rank waiting in a collective unblocks.
func TestAbortUnblocksCollective(t *testing.T) {
	w := NewWorld(2)
	comms := attach(t, w)
	errCh := make(chan error, 1)
	go func() { errCh <- comms[0].Barrier() }()
	w.Abort(1, nil)
	if err := <-errCh; !errors.Is(err, ErrAborted) {
		t.Fatalf("Barrier returned %v, want ErrAborted", err)
	}
}

// TestInjectedRankAbort: the mpi-abort site kills the job from inside an
// MPI call; the injected fault is recoverable from both ranks' errors.
func TestInjectedRankAbort(t *testing.T) {
	w := NewWorld(2)
	comms := attach(t, w)
	plan, err := faults.Parse("mpi-abort@0:r1")
	if err != nil {
		t.Fatal(err)
	}
	comms[1].SetInjector(plan.Injector(1))

	errCh := make(chan error, 1)
	go func() { errCh <- comms[0].Barrier() }()
	err1 := comms[1].Barrier()
	f, ok := faults.Extract(err1)
	if !ok || f.Site != faults.MPIRankAbort || f.Occurrence != 0 {
		t.Fatalf("aborting rank error %v, want injected mpi-abort fault", err1)
	}
	err0 := <-errCh
	if !errors.Is(err0, ErrAborted) {
		t.Fatalf("peer error %v, want ErrAborted", err0)
	}
	if _, ok := faults.Extract(err0); !ok {
		t.Fatalf("peer error %v should carry the causing fault", err0)
	}
}

// TestInjectedTruncate: the mpi-truncate site surfaces as ErrTruncate
// carrying the fault.
func TestInjectedTruncate(t *testing.T) {
	w := NewWorld(2)
	comms := attach(t, w)
	plan, err := faults.Parse("mpi-truncate@0:r1")
	if err != nil {
		t.Fatal(err)
	}
	comms[1].SetInjector(plan.Injector(1))

	sbuf := comms[0].mem.Alloc(64, memspace.KindHostPageable)
	rbuf := comms[1].mem.Alloc(64, memspace.KindHostPageable)
	if err := comms[0].Send(sbuf, 8, Float64, 1, 0); err != nil {
		t.Fatal(err)
	}
	_, rerr := comms[1].Recv(rbuf, 8, Float64, 0, 0)
	if !errors.Is(rerr, ErrTruncate) {
		t.Fatalf("Recv returned %v, want ErrTruncate", rerr)
	}
	if _, ok := faults.Extract(rerr); !ok {
		t.Fatalf("truncate error %v should carry the fault", rerr)
	}
}

// TestInjectedDelayCompletion: the mpi-delay site makes Test report
// incomplete once, then the request completes normally with intact data.
func TestInjectedDelayCompletion(t *testing.T) {
	w := NewWorld(2)
	comms := attach(t, w)
	plan, err := faults.Parse("mpi-delay@0:r1")
	if err != nil {
		t.Fatal(err)
	}
	comms[1].SetInjector(plan.Injector(1))

	sbuf := comms[0].mem.Alloc(64, memspace.KindHostPageable)
	rbuf := comms[1].mem.Alloc(64, memspace.KindHostPageable)
	if err := comms[0].mem.Set(sbuf, 0xAB, 64); err != nil {
		t.Fatal(err)
	}
	req, err := comms[1].Irecv(rbuf, 8, Float64, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := comms[0].Send(sbuf, 8, Float64, 1, 0); err != nil {
		t.Fatal(err)
	}
	done, _, err := comms[1].Test(req)
	if err != nil || done {
		t.Fatalf("first Test = (%v, %v), want delayed incomplete", done, err)
	}
	done, st, err := comms[1].Test(req)
	if err != nil || !done || st.Count != 8 {
		t.Fatalf("second Test = (%v, %+v, %v), want complete", done, st, err)
	}
	b, err := comms[1].mem.Bytes(rbuf, 64)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range b {
		if v != 0xAB {
			t.Fatalf("byte %d = %#x after delayed completion", i, v)
		}
	}
}

// TestAbortFirstWins: only the first abort's cause is kept.
func TestAbortFirstWins(t *testing.T) {
	w := NewWorld(2)
	w.Abort(0, errors.New("first"))
	w.Abort(1, errors.New("second"))
	if err := w.Aborted(); err == nil || !errors.Is(err, ErrAborted) {
		t.Fatalf("Aborted = %v", err)
	} else if got := err.Error(); !strings.Contains(got, "first") || strings.Contains(got, "second") {
		t.Fatalf("abort error %q, want first cause only", got)
	}
}

// TestAbortPrefersCompletion: a message the dead rank delivered before
// dying is still receivable after the abort is visible — completion
// wins over the abort, which is what makes faulted verdicts a pure
// function of the fault plan (the campaign determinism guarantee).
func TestAbortPrefersCompletion(t *testing.T) {
	w := NewWorld(2)
	comms := attach(t, w)
	sbuf := comms[1].mem.Alloc(64, memspace.KindHostPageable)
	rbuf := comms[0].mem.Alloc(64, memspace.KindHostPageable)
	if err := comms[1].Send(sbuf, 8, Float64, 0, 0); err != nil {
		t.Fatal(err)
	}
	w.Abort(1, errors.New("rank died after sending"))

	// The delivered message completes; the next (unmatched) Recv aborts.
	if st, err := comms[0].Recv(rbuf, 8, Float64, 1, 0); err != nil || st.Count != 8 {
		t.Fatalf("Recv of pre-abort delivery = (%+v, %v), want completion", st, err)
	}
	if _, err := comms[0].Recv(rbuf, 8, Float64, 1, 0); !errors.Is(err, ErrAborted) {
		t.Fatalf("unmatched post-abort Recv returned %v, want ErrAborted", err)
	}
}

// TestTestTerminatesOnAbort: a Test poll on an unmatched request fails
// with the abort error once the abort is visible (no infinite spin),
// but still completes a request the dead rank matched before dying.
func TestTestTerminatesOnAbort(t *testing.T) {
	w := NewWorld(2)
	comms := attach(t, w)
	buf := comms[0].mem.Alloc(64, memspace.KindHostPageable)
	unmatched, err := comms[0].Irecv(buf, 8, Float64, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	buf2 := comms[0].mem.Alloc(64, memspace.KindHostPageable)
	matched, err := comms[0].Irecv(buf2, 8, Float64, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	sbuf := comms[1].mem.Alloc(64, memspace.KindHostPageable)
	if err := comms[1].Send(sbuf, 8, Float64, 0, 2); err != nil {
		t.Fatal(err)
	}
	w.Abort(1, errors.New("rank died"))

	if done, _, err := comms[0].Test(matched); err != nil || !done {
		t.Fatalf("Test of matched request = (%v, %v), want completion", done, err)
	}
	if _, _, err := comms[0].Test(unmatched); !errors.Is(err, ErrAborted) {
		t.Fatalf("Test of unmatched request returned %v, want ErrAborted", err)
	}
}

// TestIprobeTerminatesOnAbort: an Iprobe poll still finds a pre-abort
// delivery, and fails (rather than reporting "no message" forever) for
// an envelope the dead rank never sent.
func TestIprobeTerminatesOnAbort(t *testing.T) {
	w := NewWorld(2)
	comms := attach(t, w)
	sbuf := comms[1].mem.Alloc(64, memspace.KindHostPageable)
	if err := comms[1].Send(sbuf, 8, Float64, 0, 7); err != nil {
		t.Fatal(err)
	}
	w.Abort(1, errors.New("rank died"))

	if ok, st, err := comms[0].Iprobe(1, 7); err != nil || !ok || st.Count != 8 {
		t.Fatalf("Iprobe of pre-abort delivery = (%v, %+v, %v), want found", ok, st, err)
	}
	if _, _, err := comms[0].Iprobe(1, 99); !errors.Is(err, ErrAborted) {
		t.Fatalf("Iprobe of never-sent envelope returned %v, want ErrAborted", err)
	}
}

// TestPostAbortBufferedSend: a buffered send after an abort still
// succeeds — it never blocks on the dead peer, so it can complete, and
// completion always wins.
func TestPostAbortBufferedSend(t *testing.T) {
	w := NewWorld(2)
	comms := attach(t, w)
	w.Abort(1, errors.New("rank died"))
	sbuf := comms[0].mem.Alloc(64, memspace.KindHostPageable)
	if err := comms[0].Send(sbuf, 8, Float64, 1, 0); err != nil {
		t.Fatalf("post-abort buffered Send returned %v, want success", err)
	}
}

// TestAbortedRankStaysDead: a rank whose injected abort fired is dead.
// Its later operations fail with its own fault and deliver nothing, so
// the peer's receive fails as collateral on every schedule instead of
// matching a message sent after the death.
func TestAbortedRankStaysDead(t *testing.T) {
	w := NewWorld(2)
	comms := attach(t, w)
	plan, err := faults.Parse("mpi-abort@0:r0")
	if err != nil {
		t.Fatal(err)
	}
	comms[0].SetInjector(plan.Injector(0))
	sbuf := comms[0].mem.Alloc(64, memspace.KindHostPageable)
	rbuf := comms[1].mem.Alloc(64, memspace.KindHostPageable)

	first := comms[0].Send(sbuf, 8, Float64, 1, 0)
	if f, ok := faults.Extract(first); !ok || f.Site != faults.MPIRankAbort {
		t.Fatalf("first Send returned %v, want the injected abort", first)
	}
	second := comms[0].Send(sbuf, 8, Float64, 1, 0)
	if second != first {
		t.Fatalf("Send after death returned %v, want %v", second, first)
	}
	if n := w.boxes[1].unmatchedSends(); n != 0 {
		t.Fatalf("dead rank delivered %d message(s)", n)
	}
	if _, err := comms[1].Recv(rbuf, 8, Float64, 0, 0); !errors.Is(err, ErrAborted) {
		t.Fatalf("peer Recv returned %v, want ErrAborted", err)
	}
}
