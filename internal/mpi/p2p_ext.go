package mpi

import (
	"fmt"

	"cusango/internal/memspace"
)

// Extended point-to-point operations: synchronous-mode send (MPI_Ssend),
// Waitany, and Probe/Iprobe.

// probeWaiter is a parked MPI_Probe; st is set under the mailbox lock
// before done closes.
type probeWaiter struct {
	src, tag int
	done     chan struct{}
	st       Status
}

// notifyProbes completes parked probes that match p. Must run with the
// mailbox locked.
func (mb *mailbox) notifyProbes(p *packet) {
	kept := mb.probes[:0]
	for _, w := range mb.probes {
		if envelopeMatch(w.src, w.tag, p) {
			w.st = statusOf(p)
			mb.wake(p.src, w.done, mb.owner)
			close(w.done)
		} else {
			kept = append(kept, w)
		}
	}
	mb.probes = kept
}

func statusOf(p *packet) Status {
	n := 0
	if p.dt.Size > 0 {
		n = int(int64(len(p.data)) / p.dt.Size)
	}
	return Status{Source: p.src, Tag: p.tag, Count: n}
}

// deliverSync posts a packet that carries a rendezvous channel: it is
// closed when a receive matches the packet (synchronous-mode send
// semantics).
func (mb *mailbox) deliverSync(p *packet) {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	defer mb.delivered()
	mb.notifyProbes(p)
	for i, r := range mb.recvs {
		if envelopeMatch(r.src, r.tag, p) {
			mb.recvs = append(mb.recvs[:i], mb.recvs[i+1:]...)
			r.pkt = p
			mb.wake(p.src, r.done, mb.owner)
			close(r.done)
			mb.wake(p.src, p.rendezvous, p.src)
			close(p.rendezvous)
			return
		}
	}
	mb.activity(p.src, mb.owner)
	mb.sends = append(mb.sends, p)
}

// Ssend performs a synchronous-mode send (MPI_Ssend): it returns only
// after the matching receive has been posted, so completion implies the
// receiver reached the communication.
func (c *Comm) Ssend(buf memspace.Addr, count int, dt Datatype, dest, tag int) error {
	if count < 0 {
		return ErrCount
	}
	if err := c.checkPeer(dest, false); err != nil {
		return err
	}
	if err := c.enter(); err != nil {
		return err
	}
	// Interception: access semantics identical to a standard send.
	c.hooks.PreSend(buf, count, dt, dest, tag)
	data, err := c.readBuf(buf, count, dt)
	if err != nil {
		return err
	}
	p := &packet{src: c.rank, tag: tag, dt: dt, data: data, rendezvous: make(chan struct{})}
	c.world.boxes[dest].deliverSync(p)
	// The rendezvous needs the receiver to post a matching receive.
	if err := c.await(p.rendezvous, dest); err != nil {
		return err
	}
	c.stats.Sends++
	c.stats.BytesSent += int64(len(data))
	c.countBufferKind(buf)
	c.hooks.PostSend(buf, count, dt, dest, tag)
	return nil
}

// Waitany blocks until one of the requests completes, completes it, and
// returns its index (MPI_Waitany).
func (c *Comm) Waitany(reqs []*Request) (int, Status, error) {
	if len(reqs) == 0 {
		return -1, Status{}, fmt.Errorf("%w: Waitany with no requests", ErrRequest)
	}
	for i, r := range reqs {
		if r == nil || r.comm != c {
			return -1, Status{}, fmt.Errorf("%w: request %d foreign or nil", ErrRequest, i)
		}
		if r.done {
			return -1, Status{}, fmt.Errorf("%w: request %d already completed", ErrRequest, i)
		}
	}
	if err := c.enter(); err != nil {
		return -1, Status{}, err
	}
	// Send requests complete immediately (buffered transport).
	for i, r := range reqs {
		if r.kind == ReqSend {
			st, err := c.Wait(r)
			return i, st, err
		}
	}
	if c.world.ctl != nil {
		// Which completed request Waitany returns is a schedule choice.
		return c.waitanyControlled(reqs)
	}
	// All receives. Each completes under this rank's mailbox lock in a
	// delivery, which then advances the mailbox epoch: wait on the epoch
	// and re-scan. Waitany fails only when every request's source is
	// gone; a completion seen at the last epoch still wins.
	mb := c.world.boxes[c.rank]
	for {
		_, changed := mb.watch()
		for i, r := range reqs {
			if closed(r.post.done) {
				st, err := c.Wait(r)
				return i, st, err
			}
		}
		err := c.world.await(c.rank, changed, func() bool {
			for _, r := range reqs {
				if !c.world.peerGone(c.rank, r.post.src) {
					return false
				}
			}
			return true
		})
		if err != nil {
			return -1, Status{}, err
		}
	}
}

// findMatch scans this rank's mailbox for a delivered message matching
// (src, tag) without consuming it.
func (c *Comm) findMatch(src, tag int) (bool, Status) {
	mb := c.world.boxes[c.rank]
	mb.mu.Lock()
	defer mb.mu.Unlock()
	for _, p := range mb.sends {
		if envelopeMatch(src, tag, p) {
			return true, statusOf(p)
		}
	}
	return false, Status{}
}

// Iprobe checks non-blockingly for a matching incoming message without
// receiving it (MPI_Iprobe). Like Test, it reports "not yet" until the
// probed source is provably gone (see poll); a message the departed
// rank delivered is still found.
func (c *Comm) Iprobe(src, tag int) (bool, Status, error) {
	if err := c.checkPeer(src, true); err != nil {
		return false, Status{}, err
	}
	if c.world.ctl != nil {
		// Whether a poll sees the message is a schedule choice; an
		// unmatchable poll parks (a fruitless iteration is unobservable).
		return c.iprobeControlled(src, tag)
	}
	var st Status
	ok, err := c.poll(src, func() (found bool) {
		found, st = c.findMatch(src, tag)
		return found
	})
	return ok, st, err
}

// Probe blocks until a matching message is available, without receiving
// it (MPI_Probe). A subsequent Recv with the returned envelope consumes
// the message.
func (c *Comm) Probe(src, tag int) (Status, error) {
	if err := c.checkPeer(src, true); err != nil {
		return Status{}, err
	}
	if err := c.enter(); err != nil {
		return Status{}, err
	}
	if c.world.ctl != nil && (src == AnySource || tag == AnyTag) {
		// Which candidate a wildcard probe reports is a schedule choice.
		return c.probeControlled(src, tag)
	}
	mb := c.world.boxes[c.rank]
	mb.mu.Lock()
	for _, p := range mb.sends {
		if envelopeMatch(src, tag, p) {
			st := statusOf(p)
			mb.mu.Unlock()
			return st, nil
		}
	}
	w := &probeWaiter{src: src, tag: tag, done: make(chan struct{})}
	mb.probes = append(mb.probes, w)
	mb.mu.Unlock()
	if err := c.await(w.done, src); err != nil {
		return Status{}, err
	}
	return w.st, nil
}
