package mpi

import (
	"fmt"
	"sort"
	"strconv"

	"cusango/internal/memspace"
	"cusango/internal/sched"
)

// Controlled scheduling (internal/sched integration).
//
// Under a controller, every nondeterministic completion choice of the
// library becomes an explicit decision point: wildcard receives and
// probes settle as Match points over the candidate messages, Test and
// Iprobe settle as Poll points (complete versus defer, parking while no
// completion is possible — behaviourally identical for the poll loops
// the suite uses, since a fruitless poll iteration has no observable
// effect), and Waitany settles as a Pick point over the completed
// requests. Deterministic completions (specific-envelope matching,
// collectives, rendezvous) stay on their channel paths, bracketed by
// Block/Wake so the controller tracks quiescence.

// SetController places the world under a schedule controller. Call
// before any rank communicates; the controller must be built for
// exactly this world's size.
func (w *World) SetController(ctl *sched.Controller) {
	w.ctl = ctl
	for i, mb := range w.boxes {
		mb.owner = i
		mb.ctl = ctl
	}
	ctl.SetOnStuck(func() { w.abortStuck(ctl) })
}

// abortStuck tears the job down when the controller halts the current
// schedule: either a proven deadlock (ranks unblock with an abort error
// wrapping sched.ErrStuck, so verdicts can tell a genuine deadlock from
// a fault-induced abort) or an exhausted step budget (wrapping
// sched.ErrBudget — the supervision verdict).
func (w *World) abortStuck(ctl *sched.Controller) {
	cause := error(sched.ErrStuck)
	if ctl.BudgetHit() {
		cause = sched.ErrBudget
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.cancelLocked(cause)
}

// schedErr maps a controller error to the library's abort errors.
func (c *Comm) schedErr(err error) error {
	if err == sched.ErrStuck {
		return fmt.Errorf("%w: %w", ErrAborted, sched.ErrStuck)
	}
	if err == sched.ErrBudget {
		return fmt.Errorf("%w: %w", ErrAborted, sched.ErrBudget)
	}
	if aerr := c.world.Aborted(); aerr != nil {
		return aerr
	}
	return ErrAborted
}

// candidatePackets returns the wildcard-matching candidates of a
// mailbox: the earliest matching packet of each source (MPI
// non-overtaking fixes the per-source choice; the schedule only picks
// the source), in ascending source order so option indices are stable
// across schedules. Caller holds mb.mu.
func candidatePackets(sends []*packet, src, tag int) []*packet {
	seen := make(map[int]bool)
	var out []*packet
	for _, p := range sends {
		if !envelopeMatch(src, tag, p) || seen[p.src] {
			continue
		}
		seen[p.src] = true
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].src < out[j].src })
	return out
}

// take consumes a previously chosen candidate packet, completing its
// rendezvous if the sender is parked on one.
func (mb *mailbox) take(p *packet) {
	mb.mu.Lock()
	for i, q := range mb.sends {
		if q == p {
			mb.sends = append(mb.sends[:i], mb.sends[i+1:]...)
			break
		}
	}
	if p.rendezvous != nil {
		mb.wake(mb.owner, p.rendezvous, p.src)
		close(p.rendezvous)
	}
	mb.mu.Unlock()
}

func srcTagLabel(p *packet) string {
	return "src=" + strconv.Itoa(p.src) + ",tag=" + strconv.Itoa(p.tag)
}

// matchControlled settles a wildcard receive as a Match decision and
// consumes the chosen packet. It parks until at least one candidate is
// available.
func (c *Comm) matchControlled(op string, src, tag int) (*packet, error) {
	mb := c.world.boxes[c.rank]
	var pkts []*packet
	idx, err := c.world.ctl.Settle(c.rank, sched.Match, op, func() []sched.Option {
		mb.mu.Lock()
		pkts = candidatePackets(mb.sends, src, tag)
		mb.mu.Unlock()
		opts := make([]sched.Option, len(pkts))
		for i, p := range pkts {
			opts[i] = sched.Opt(srcTagLabel(p), p.src)
		}
		return opts
	})
	if err != nil {
		return nil, c.schedErr(err)
	}
	p := pkts[idx]
	mb.take(p)
	return p, nil
}

// recvControlled is the controlled path of a blocking wildcard receive.
func (c *Comm) recvControlled(buf memspace.Addr, count int, dt Datatype, src, tag int) (Status, error) {
	p, err := c.matchControlled("recv", src, tag)
	if err != nil {
		return Status{}, err
	}
	st, err := c.completeRecv(buf, count, dt, p)
	if err != nil {
		return st, err
	}
	c.stats.Recvs++
	c.countBufferKind(buf)
	c.hooks.PostRecv(buf, count, dt, st)
	return st, nil
}

// waitHeld completes a held wildcard Irecv inside Wait: a Match point
// over the candidates, then the normal completion path (the chosen
// packet is installed as the request's post so Wait's bookkeeping is
// identical to the uncontrolled path).
func (c *Comm) waitHeld(req *Request) error {
	p, err := c.matchControlled("wait", req.peer, req.tag)
	if err != nil {
		return err
	}
	c.installHeld(req, p)
	return nil
}

// installHeld turns a held request into a completed posted one.
func (c *Comm) installHeld(req *Request, p *packet) {
	done := make(chan struct{})
	close(done)
	req.post = &recvPost{src: req.peer, tag: req.tag, done: done, pkt: p}
	req.held = false
}

// testControlled settles Test as a Poll point: parked while the request
// cannot complete (a fruitless poll iteration is unobservable), then a
// choice between completing and deferring once it can. The controller's
// stutter rule keeps repeated defers from looping forever.
func (c *Comm) testControlled(req *Request) (bool, Status, error) {
	if req.kind == ReqSend {
		st, err := c.Wait(req)
		if err != nil {
			return false, Status{}, err
		}
		return true, st, nil
	}
	mb := c.world.boxes[c.rank]
	var pkts []*packet
	idx, err := c.world.ctl.Settle(c.rank, sched.Poll, "test", func() []sched.Option {
		if req.held {
			mb.mu.Lock()
			pkts = candidatePackets(mb.sends, req.peer, req.tag)
			mb.mu.Unlock()
			if len(pkts) == 0 {
				return nil
			}
			opts := make([]sched.Option, 0, len(pkts)+1)
			for _, p := range pkts {
				opts = append(opts, sched.Opt(srcTagLabel(p), p.src))
			}
			return append(opts, sched.DeferOpt())
		}
		pkts = nil
		if closed(req.post.done) {
			return []sched.Option{sched.Opt("complete", 0), sched.DeferOpt()}
		}
		return nil
	})
	if err != nil {
		return false, Status{}, c.schedErr(err)
	}
	if req.held {
		if idx >= len(pkts) {
			return false, Status{}, nil // deferred
		}
		p := pkts[idx]
		mb.take(p)
		c.installHeld(req, p)
	} else if idx == 1 {
		return false, Status{}, nil // deferred
	}
	st, err := c.Wait(req)
	if err != nil {
		return false, Status{}, err
	}
	return true, st, nil
}

// iprobeControlled settles Iprobe as a non-consuming Poll point.
func (c *Comm) iprobeControlled(src, tag int) (bool, Status, error) {
	mb := c.world.boxes[c.rank]
	var sts []Status
	idx, err := c.world.ctl.Settle(c.rank, sched.Poll, "iprobe", func() []sched.Option {
		mb.mu.Lock()
		pkts := candidatePackets(mb.sends, src, tag)
		mb.mu.Unlock()
		if len(pkts) == 0 {
			sts = nil
			return nil
		}
		sts = sts[:0]
		opts := make([]sched.Option, 0, len(pkts)+1)
		for _, p := range pkts {
			opts = append(opts, sched.Opt(srcTagLabel(p), p.src))
			sts = append(sts, statusOf(p))
		}
		return append(opts, sched.DeferOpt())
	})
	if err != nil {
		return false, Status{}, c.schedErr(err)
	}
	if idx >= len(sts) {
		return false, Status{}, nil // deferred: report "no message yet"
	}
	return true, sts[idx], nil
}

// probeControlled settles a wildcard Probe as a non-consuming Match
// point, parking until a candidate arrives.
func (c *Comm) probeControlled(src, tag int) (Status, error) {
	mb := c.world.boxes[c.rank]
	var sts []Status
	idx, err := c.world.ctl.Settle(c.rank, sched.Match, "probe", func() []sched.Option {
		mb.mu.Lock()
		pkts := candidatePackets(mb.sends, src, tag)
		mb.mu.Unlock()
		sts = sts[:0]
		opts := make([]sched.Option, len(pkts))
		for i, p := range pkts {
			opts[i] = sched.Opt(srcTagLabel(p), p.src)
			sts = append(sts, statusOf(p))
		}
		return opts
	})
	if err != nil {
		return Status{}, c.schedErr(err)
	}
	return sts[idx], nil
}

// waitanyControlled settles Waitany as a Pick point over the requests
// that could complete, parking until one can. A held wildcard request
// picked here completes with its lowest-source candidate (a further
// Match split adds nothing for the suite's specific-envelope usage).
func (c *Comm) waitanyControlled(reqs []*Request) (int, Status, error) {
	mb := c.world.boxes[c.rank]
	var picks []int
	idx, err := c.world.ctl.Settle(c.rank, sched.Pick, "waitany", func() []sched.Option {
		picks = picks[:0]
		var opts []sched.Option
		for i, r := range reqs {
			if r.held {
				mb.mu.Lock()
				n := len(candidatePackets(mb.sends, r.peer, r.tag))
				mb.mu.Unlock()
				if n == 0 {
					continue
				}
			} else if !closed(r.post.done) {
				continue
			}
			opts = append(opts, sched.Opt("req="+strconv.Itoa(i), i))
			picks = append(picks, i)
		}
		return opts
	})
	if err != nil {
		return -1, Status{}, c.schedErr(err)
	}
	i := picks[idx]
	st, err := c.Wait(reqs[i])
	return i, st, err
}
