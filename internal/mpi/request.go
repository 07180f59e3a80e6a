package mpi

import (
	"fmt"

	"cusango/internal/faults"
	"cusango/internal/memspace"
)

// ReqKind discriminates request kinds.
type ReqKind uint8

// Request kinds.
const (
	ReqSend ReqKind = iota
	ReqRecv
)

func (k ReqKind) String() string {
	if k == ReqSend {
		return "isend"
	}
	return "irecv"
}

// Request is a non-blocking operation handle (MPI_Request analog).
type Request struct {
	kind  ReqKind
	buf   memspace.Addr
	count int
	dt    Datatype
	peer  int
	tag   int

	comm *Comm
	post *recvPost // recv only
	// held marks a wildcard receive under a schedule controller: the
	// match is not posted eagerly but settled as a Match decision at the
	// completion call (Wait/Test/Waitany), where the candidate choice is
	// a schedule branch.
	held bool
	done bool
	st   Status
}

// Kind returns whether the request is a send or a receive.
func (r *Request) Kind() ReqKind { return r.kind }

// Buffer returns the posted buffer address.
func (r *Request) Buffer() memspace.Addr { return r.buf }

// Count returns the posted element count.
func (r *Request) Count() int { return r.count }

// Datatype returns the posted datatype.
func (r *Request) Datatype() Datatype { return r.dt }

// Peer returns the destination (send) or source (recv, may be AnySource).
func (r *Request) Peer() int { return r.peer }

// Tag returns the posted tag.
func (r *Request) Tag() int { return r.tag }

// Done reports whether the request has completed (been waited on).
func (r *Request) Done() bool { return r.done }

func (r *Request) String() string {
	return fmt.Sprintf("%s(buf=0x%x count=%d %s peer=%d tag=%d)",
		r.kind, uint64(r.buf), r.count, r.dt.Name, r.peer, r.tag)
}

func (c *Comm) track(r *Request) {
	if c.live == nil {
		c.live = make(map[*Request]struct{})
	}
	c.live[r] = struct{}{}
}

// Isend starts a non-blocking standard-mode send. The user must not
// modify the buffer until the request completes; the correctness tooling
// (MUST) enforces this by annotating the buffer read on an MPI fiber.
// Functionally the message is captured eagerly (buffered semantics).
func (c *Comm) Isend(buf memspace.Addr, count int, dt Datatype, dest, tag int) (*Request, error) {
	if count < 0 {
		return nil, ErrCount
	}
	if err := c.checkPeer(dest, false); err != nil {
		return nil, err
	}
	if err := c.enter(); err != nil {
		return nil, err
	}
	req := &Request{kind: ReqSend, buf: buf, count: count, dt: dt, peer: dest, tag: tag, comm: c}
	c.hooks.PreIsend(buf, count, dt, dest, tag, req)
	data, err := c.readBuf(buf, count, dt)
	if err != nil {
		return nil, err
	}
	c.world.boxes[dest].deliver(&packet{src: c.rank, tag: tag, dt: dt, data: data})
	c.stats.Isends++
	c.stats.BytesSent += int64(len(data))
	c.countBufferKind(buf)
	c.track(req)
	return req, nil
}

// Irecv starts a non-blocking receive.
func (c *Comm) Irecv(buf memspace.Addr, count int, dt Datatype, src, tag int) (*Request, error) {
	if count < 0 {
		return nil, ErrCount
	}
	if err := c.checkPeer(src, true); err != nil {
		return nil, err
	}
	if err := c.enter(); err != nil {
		return nil, err
	}
	req := &Request{kind: ReqRecv, buf: buf, count: count, dt: dt, peer: src, tag: tag, comm: c}
	c.hooks.PreIrecv(buf, count, dt, src, tag, req)
	if c.world.ctl != nil && (src == AnySource || tag == AnyTag) {
		req.held = true
	} else {
		req.post = &recvPost{src: src, tag: tag, done: make(chan struct{})}
		c.world.boxes[c.rank].post(req.post)
	}
	c.stats.Irecvs++
	c.countBufferKind(buf)
	c.track(req)
	return req, nil
}

// Wait blocks until the request completes (MPI_Wait). Waiting twice on
// the same request is an error (our requests are not persistent).
func (c *Comm) Wait(req *Request) (Status, error) {
	if req == nil || req.comm != c {
		return Status{}, fmt.Errorf("%w: foreign or nil request", ErrRequest)
	}
	if req.done {
		return Status{}, fmt.Errorf("%w: already completed (%s)", ErrRequest, req)
	}
	if err := c.enter(); err != nil {
		return Status{}, err
	}
	c.hooks.PreWait(req)
	var st Status
	switch req.kind {
	case ReqSend:
		// Buffered send: complete as soon as posted.
		st = Status{Source: c.rank, Tag: req.tag, Count: req.count}
	case ReqRecv:
		if req.held {
			if err := c.waitHeld(req); err != nil {
				return Status{}, err
			}
		}
		if err := c.await(req.post.done, req.post.src); err != nil {
			return Status{}, err
		}
		var err error
		st, err = c.completeRecv(req.buf, req.count, req.dt, req.post.pkt)
		if err != nil {
			return st, err
		}
		c.stats.Recvs++
	}
	req.done = true
	req.st = st
	delete(c.live, req)
	c.stats.Waits++
	c.hooks.PostWait(req, st)
	return st, nil
}

// WaitAll waits for every request in order (MPI_Waitall).
func (c *Comm) WaitAll(reqs ...*Request) error {
	for _, r := range reqs {
		if _, err := c.Wait(r); err != nil {
			return err
		}
	}
	return nil
}

// Test polls a request (MPI_Test). With the eager transport, a send is
// always complete and a receive is complete once matched; an unmatched
// one reports "not yet" until its source is provably gone (see poll).
func (c *Comm) Test(req *Request) (bool, Status, error) {
	if req == nil || req.comm != c {
		return false, Status{}, fmt.Errorf("%w: foreign or nil request", ErrRequest)
	}
	if req.done {
		return true, req.st, nil
	}
	if c.world.ctl != nil {
		// Complete-versus-defer is a schedule choice (the delayed-
		// completion fault's logical analog); an unmatchable poll parks.
		return c.testControlled(req)
	}
	if req.kind == ReqRecv {
		if ok, err := c.poll(req.post.src, func() bool { return closed(req.post.done) }); !ok {
			return false, Status{}, err
		}
	}
	// Delayed completion: report "not yet" even though the request could
	// complete — legal under MPI progress semantics, so the tool's
	// verdict must be unaffected.
	if f := c.inj.Fire(faults.MPIDelayCompletion); f != nil {
		return false, Status{}, nil
	}
	st, err := c.Wait(req)
	if err != nil {
		return false, Status{}, err
	}
	return true, st, nil
}
