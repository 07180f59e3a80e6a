package mpi

import (
	"fmt"
	"sync"
	"sync/atomic"

	"cusango/internal/faults"
	"cusango/internal/memspace"
	"cusango/internal/sched"
)

// Point-to-point matching engine.
//
// Each destination rank owns a mailbox of unmatched posted sends
// (packets) and unmatched posted receives. Matching follows MPI rules:
// a receive matches the earliest-posted send whose (source, tag) agree,
// honouring AnySource/AnyTag wildcards, which preserves the
// non-overtaking guarantee for identical envelopes.

type recvPost struct {
	src, tag int
	done     chan struct{}
	pkt      *packet // set under the mailbox lock before closing done
}

type mailbox struct {
	mu     sync.Mutex
	sends  []*packet
	recvs  []*recvPost
	probes []*probeWaiter

	// epoch counts deliveries (starting at 1); changed, created on
	// demand by a parking poller, is closed by the next delivery. Both
	// are written under mu after the delivery's effects, so a poller
	// that sees an epoch sees everything delivered before it.
	epoch   atomic.Uint64
	changed chan struct{}

	// owner/ctl are set when the world is placed under a schedule
	// controller (World.SetController); owner is the destination rank.
	owner int
	ctl   *sched.Controller
}

func newMailbox() *mailbox {
	mb := &mailbox{}
	mb.epoch.Store(1)
	return mb
}

// watch returns the delivery epoch and the channel the next delivery
// closes.
func (mb *mailbox) watch() (uint64, chan struct{}) {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	if mb.changed == nil {
		mb.changed = make(chan struct{})
	}
	return mb.epoch.Load(), mb.changed
}

// delivered advances the delivery epoch, waking parked pollers. Caller
// holds mu and has applied the delivery.
func (mb *mailbox) delivered() {
	mb.epoch.Add(1)
	if mb.changed != nil {
		close(mb.changed)
		mb.changed = nil
	}
}

// wake re-marks ranks parked on key runnable before the caller signals
// the underlying channel (no-op without a controller). Must be called
// before the close/send so the controller never sees a false
// quiescence.
func (mb *mailbox) wake(actor int, key any, hint int) {
	if mb.ctl != nil {
		mb.ctl.Wake(actor, key, hint)
	}
}

// activity records a cross-rank effect that signals no channel (an
// unmatched delivery), feeding settler viability re-evaluation and the
// explorer's independence analysis.
func (mb *mailbox) activity(actor, target int) {
	if mb.ctl != nil {
		mb.ctl.Activity(actor, target)
	}
}

func envelopeMatch(wantSrc, wantTag int, p *packet) bool {
	if wantSrc != AnySource && wantSrc != p.src {
		return false
	}
	if wantTag != AnyTag && wantTag != p.tag {
		return false
	}
	return true
}

// deliver posts a packet to the mailbox, completing the earliest
// matching posted receive if any, and waking matching probes.
func (mb *mailbox) deliver(p *packet) {
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
			return
		}
	}
	mb.activity(p.src, mb.owner)
	mb.sends = append(mb.sends, p)
}

// post registers a receive, matching the earliest already-delivered
// packet if any.
func (mb *mailbox) post(r *recvPost) {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	for i, p := range mb.sends {
		if envelopeMatch(r.src, r.tag, p) {
			mb.sends = append(mb.sends[:i], mb.sends[i+1:]...)
			r.pkt = p
			mb.wake(mb.owner, r.done, mb.owner)
			close(r.done)
			if p.rendezvous != nil {
				mb.wake(mb.owner, p.rendezvous, p.src)
				close(p.rendezvous)
			}
			return
		}
	}
	mb.recvs = append(mb.recvs, r)
}

// unmatchedSends reports leftover packets (diagnostics).
func (mb *mailbox) unmatchedSends() int {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	return len(mb.sends)
}

// --- blocking point-to-point --------------------------------------------

// Send performs a blocking standard-mode send (buffered semantics: the
// message is captured at call time and the call returns once the buffer
// is reusable, which is immediately).
func (c *Comm) Send(buf memspace.Addr, count int, dt Datatype, dest, tag int) error {
	if count < 0 {
		return ErrCount
	}
	if err := c.checkPeer(dest, false); err != nil {
		return err
	}
	if err := c.enter(); err != nil {
		return err
	}
	c.hooks.PreSend(buf, count, dt, dest, tag)
	data, err := c.readBuf(buf, count, dt)
	if err != nil {
		return err
	}
	c.world.boxes[dest].deliver(&packet{src: c.rank, tag: tag, dt: dt, data: data})
	c.stats.Sends++
	c.stats.BytesSent += int64(len(data))
	c.countBufferKind(buf)
	c.hooks.PostSend(buf, count, dt, dest, tag)
	return nil
}

// Recv performs a blocking receive. src may be AnySource and tag AnyTag.
func (c *Comm) Recv(buf memspace.Addr, count int, dt Datatype, src, tag int) (Status, error) {
	if count < 0 {
		return Status{}, ErrCount
	}
	if err := c.checkPeer(src, true); err != nil {
		return Status{}, err
	}
	if err := c.enter(); err != nil {
		return Status{}, err
	}
	c.hooks.PreRecv(buf, count, dt, src, tag)
	if c.world.ctl != nil && (src == AnySource || tag == AnyTag) {
		// Which candidate a wildcard matches is a schedule choice.
		return c.recvControlled(buf, count, dt, src, tag)
	}
	r := &recvPost{src: src, tag: tag, done: make(chan struct{})}
	c.world.boxes[c.rank].post(r)
	if err := c.await(r.done, src); err != nil {
		return Status{}, err
	}
	st, err := c.completeRecv(buf, count, dt, r.pkt)
	if err != nil {
		return st, err
	}
	c.stats.Recvs++
	c.countBufferKind(buf)
	c.hooks.PostRecv(buf, count, dt, st)
	return st, nil
}

// completeRecv copies a matched packet into the posted buffer.
func (c *Comm) completeRecv(buf memspace.Addr, count int, dt Datatype, p *packet) (Status, error) {
	posted := int64(count) * dt.Size
	if f := c.inj.Fire(faults.MPITruncateRecv); f != nil {
		return Status{}, fmt.Errorf("%w: posted %d bytes (%w)", ErrTruncate, posted, f)
	}
	if int64(len(p.data)) > posted {
		return Status{}, fmt.Errorf("%w: got %d bytes, posted %d", ErrTruncate, len(p.data), posted)
	}
	if err := c.writeBuf(buf, p.data); err != nil {
		return Status{}, err
	}
	c.stats.BytesRecv += int64(len(p.data))
	n := 0
	if dt.Size > 0 {
		n = int(int64(len(p.data)) / dt.Size)
	}
	return Status{Source: p.src, Tag: p.tag, Count: n}, nil
}

// Sendrecv performs the combined blocking send/receive (deadlock-free
// halo exchange primitive): the receive is posted first, the send
// executes, then the receive completes.
func (c *Comm) Sendrecv(
	sendBuf memspace.Addr, sendCount int, sendType Datatype, dest, sendTag int,
	recvBuf memspace.Addr, recvCount int, recvType Datatype, src, recvTag int,
) (Status, error) {
	if sendCount < 0 || recvCount < 0 {
		return Status{}, ErrCount
	}
	if err := c.checkPeer(dest, false); err != nil {
		return Status{}, err
	}
	if err := c.checkPeer(src, true); err != nil {
		return Status{}, err
	}
	if err := c.enter(); err != nil {
		return Status{}, err
	}
	// Interception: a Sendrecv is a send and a receive.
	c.hooks.PreSend(sendBuf, sendCount, sendType, dest, sendTag)
	c.hooks.PreRecv(recvBuf, recvCount, recvType, src, recvTag)

	ctlWild := c.world.ctl != nil && (src == AnySource || recvTag == AnyTag)
	var r *recvPost
	if !ctlWild {
		r = &recvPost{src: src, tag: recvTag, done: make(chan struct{})}
		c.world.boxes[c.rank].post(r)
	}

	data, err := c.readBuf(sendBuf, sendCount, sendType)
	if err != nil {
		return Status{}, err
	}
	c.world.boxes[dest].deliver(&packet{src: c.rank, tag: sendTag, dt: sendType, data: data})
	c.stats.Sends++
	c.stats.BytesSent += int64(len(data))
	c.countBufferKind(sendBuf)
	c.hooks.PostSend(sendBuf, sendCount, sendType, dest, sendTag)

	if ctlWild {
		// The wildcard receive half settles as a Match decision (the send
		// above already went out, so peers can make progress).
		return c.recvControlled(recvBuf, recvCount, recvType, src, recvTag)
	}
	if err := c.await(r.done, src); err != nil {
		return Status{}, err
	}
	st, err := c.completeRecv(recvBuf, recvCount, recvType, r.pkt)
	if err != nil {
		return st, err
	}
	c.stats.Recvs++
	c.countBufferKind(recvBuf)
	c.hooks.PostRecv(recvBuf, recvCount, recvType, st)
	return st, nil
}

// UnmatchedSends reports packets delivered to this rank that no receive
// ever matched (job-teardown diagnostics).
func (c *Comm) UnmatchedSends() int {
	return c.world.boxes[c.rank].unmatchedSends()
}
