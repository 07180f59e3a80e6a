package mpi

import (
	"encoding/binary"
	"fmt"
	"math"

	"cusango/internal/memspace"
)

// Collectives. All ranks of the communicator must call collectives in the
// same order; the matching engine pairs the i-th collective call of every
// rank and verifies the operation names agree (a mismatch is the classic
// MPI collective-ordering bug, reported as ErrCollectiveMismatch).

type collOp struct {
	name     string
	contribs [][]byte
	came     []bool // per-rank arrival, for the death predicate
	arrived  int
	result   []byte
	err      error
	done     chan struct{}
}

// getColl pairs the caller's seq-th collective with its peers'.
func (w *World) getColl(seq int64, name string) *collOp {
	w.collMu.Lock()
	defer w.collMu.Unlock()
	op, ok := w.colls[seq]
	if !ok {
		op = &collOp{name: name, contribs: make([][]byte, w.size),
			came: make([]bool, w.size), done: make(chan struct{})}
		w.colls[seq] = op
	}
	return op
}

// contribute registers this rank's payload (or its local failure, so
// peers do not deadlock waiting for a rank that errored out before
// contributing); the last arriver finalizes. A job abort releases
// waiting ranks with the abort error — a dead rank never arrives.
func (w *World) contribute(op *collOp, seq int64, rank int, name string, data []byte,
	localErr error, finalize func(op *collOp)) error {
	w.collMu.Lock()
	if localErr != nil && op.err == nil {
		op.err = fmt.Errorf("mpi: rank %d failed in %s: %w", rank, name, localErr)
	}
	if op.name != name && op.err == nil {
		op.err = fmt.Errorf("%w: %q vs %q", ErrCollectiveMismatch, op.name, name)
	}
	op.contribs[rank] = data
	op.came[rank] = true
	op.arrived++
	last := op.arrived == w.size
	if last {
		if op.err == nil {
			finalize(op)
		}
		delete(w.colls, seq)
	}
	w.collMu.Unlock()
	if last {
		if w.ctl != nil {
			// A completing collective affects every rank (including ones
			// still on their way to the call): record a wildcard activity,
			// then wake the parked waiters before the close.
			w.ctl.Activity(rank, -1)
			w.ctl.Wake(rank, op.done, -1)
		}
		close(op.done)
		return nil
	}
	// The collective needs every participant that has not yet arrived at
	// this instance; one that arrived and left later already contributed.
	return w.await(rank, op.done, func() bool {
		w.collMu.Lock()
		defer w.collMu.Unlock()
		for r := 0; r < w.size; r++ {
			if !op.came[r] && w.rankGone(r) {
				return true
			}
		}
		return false
	})
}

// Barrier blocks until all ranks arrive (MPI_Barrier).
func (c *Comm) Barrier() error {
	if err := c.enter(); err != nil {
		return err
	}
	c.hooks.PreCollective("MPI_Barrier", 0, 0, 0, 0)
	seq := c.collSeq
	c.collSeq++
	op := c.world.getColl(seq, "MPI_Barrier")
	if err := c.world.contribute(op, seq, c.rank, "MPI_Barrier", nil, nil, func(*collOp) {}); err != nil {
		return err
	}
	c.stats.Collectives++
	c.hooks.PostCollective("MPI_Barrier", 0, 0, 0, 0)
	return op.err
}

// Bcast broadcasts count elements from root's buf into every rank's buf
// (MPI_Bcast).
func (c *Comm) Bcast(buf memspace.Addr, count int, dt Datatype, root int) error {
	if count < 0 {
		return ErrCount
	}
	if err := c.checkPeer(root, false); err != nil {
		return err
	}
	if err := c.enter(); err != nil {
		return err
	}
	bytes := int64(count) * dt.Size
	var readA, writeA memspace.Addr
	var readN, writeN int64
	if c.rank == root {
		readA, readN = buf, bytes
	} else {
		writeA, writeN = buf, bytes
	}
	c.hooks.PreCollective("MPI_Bcast", readA, readN, writeA, writeN)

	var payload []byte
	var localErr error
	if c.rank == root {
		payload, localErr = c.readBuf(buf, count, dt)
	}
	seq := c.collSeq
	c.collSeq++
	op := c.world.getColl(seq, "MPI_Bcast")
	if err := c.world.contribute(op, seq, c.rank, "MPI_Bcast", payload, localErr, func(op *collOp) {
		op.result = op.contribs[root]
	}); err != nil {
		return err
	}
	if op.err != nil {
		return op.err
	}
	if c.rank != root {
		if int64(len(op.result)) != bytes {
			return fmt.Errorf("%w: bcast size mismatch: root sent %d bytes, posted %d",
				ErrTruncate, len(op.result), bytes)
		}
		if err := c.writeBuf(buf, op.result); err != nil {
			return err
		}
	}
	c.stats.Collectives++
	c.countBufferKind(buf)
	c.hooks.PostCollective("MPI_Bcast", readA, readN, writeA, writeN)
	return nil
}

// Allreduce reduces count elements element-wise across ranks and stores
// the result in every rank's recvBuf (MPI_Allreduce).
func (c *Comm) Allreduce(sendBuf, recvBuf memspace.Addr, count int, dt Datatype, op Op) error {
	return c.reduceImpl("MPI_Allreduce", sendBuf, recvBuf, count, dt, op, -1)
}

// Reduce reduces to root only (MPI_Reduce).
func (c *Comm) Reduce(sendBuf, recvBuf memspace.Addr, count int, dt Datatype, op Op, root int) error {
	if err := c.checkPeer(root, false); err != nil {
		return err
	}
	return c.reduceImpl("MPI_Reduce", sendBuf, recvBuf, count, dt, op, root)
}

func (c *Comm) reduceImpl(name string, sendBuf, recvBuf memspace.Addr, count int,
	dt Datatype, rop Op, root int) error {
	if count < 0 {
		return ErrCount
	}
	if err := c.enter(); err != nil {
		return err
	}
	bytes := int64(count) * dt.Size
	writes := root < 0 || root == c.rank
	var writeA memspace.Addr
	var writeN int64
	if writes {
		writeA, writeN = recvBuf, bytes
	}
	c.hooks.PreCollective(name, sendBuf, bytes, writeA, writeN)

	payload, localErr := c.readBuf(sendBuf, count, dt)
	seq := c.collSeq
	c.collSeq++
	op := c.world.getColl(seq, name)
	if err := c.world.contribute(op, seq, c.rank, name, payload, localErr, func(op *collOp) {
		acc := make([]byte, len(op.contribs[0]))
		copy(acc, op.contribs[0])
		for r := 1; r < len(op.contribs); r++ {
			reduceInto(acc, op.contribs[r], dt, rop)
		}
		op.result = acc
	}); err != nil {
		return err
	}
	if op.err != nil {
		return op.err
	}
	if writes {
		if err := c.writeBuf(recvBuf, op.result); err != nil {
			return err
		}
	}
	c.stats.Collectives++
	c.countBufferKind(sendBuf)
	c.hooks.PostCollective(name, sendBuf, bytes, writeA, writeN)
	return nil
}

// Allgather concatenates every rank's count elements into recvBuf
// (size*count elements) on all ranks (MPI_Allgather).
func (c *Comm) Allgather(sendBuf, recvBuf memspace.Addr, count int, dt Datatype) error {
	if count < 0 {
		return ErrCount
	}
	if err := c.enter(); err != nil {
		return err
	}
	bytes := int64(count) * dt.Size
	total := bytes * int64(c.world.size)
	c.hooks.PreCollective("MPI_Allgather", sendBuf, bytes, recvBuf, total)

	payload, localErr := c.readBuf(sendBuf, count, dt)
	seq := c.collSeq
	c.collSeq++
	op := c.world.getColl(seq, "MPI_Allgather")
	if err := c.world.contribute(op, seq, c.rank, "MPI_Allgather", payload, localErr, func(op *collOp) {
		var out []byte
		for _, part := range op.contribs {
			out = append(out, part...)
		}
		op.result = out
	}); err != nil {
		return err
	}
	if op.err != nil {
		return op.err
	}
	if err := c.writeBuf(recvBuf, op.result); err != nil {
		return err
	}
	c.stats.Collectives++
	c.countBufferKind(recvBuf)
	c.hooks.PostCollective("MPI_Allgather", sendBuf, bytes, recvBuf, total)
	return nil
}

// reduceInto applies acc = acc (op) src element-wise.
func reduceInto(acc, src []byte, dt Datatype, op Op) {
	switch dt.TypeartID {
	case Float64.TypeartID:
		for i := 0; i+8 <= len(acc); i += 8 {
			a := math.Float64frombits(binary.LittleEndian.Uint64(acc[i:]))
			b := math.Float64frombits(binary.LittleEndian.Uint64(src[i:]))
			binary.LittleEndian.PutUint64(acc[i:], math.Float64bits(applyF(a, b, op)))
		}
	case Float32.TypeartID:
		for i := 0; i+4 <= len(acc); i += 4 {
			a := math.Float32frombits(binary.LittleEndian.Uint32(acc[i:]))
			b := math.Float32frombits(binary.LittleEndian.Uint32(src[i:]))
			binary.LittleEndian.PutUint32(acc[i:], math.Float32bits(float32(applyF(float64(a), float64(b), op))))
		}
	case Int64.TypeartID:
		for i := 0; i+8 <= len(acc); i += 8 {
			a := int64(binary.LittleEndian.Uint64(acc[i:]))
			b := int64(binary.LittleEndian.Uint64(src[i:]))
			binary.LittleEndian.PutUint64(acc[i:], uint64(applyI(a, b, op)))
		}
	case Int32.TypeartID:
		for i := 0; i+4 <= len(acc); i += 4 {
			a := int64(int32(binary.LittleEndian.Uint32(acc[i:])))
			b := int64(int32(binary.LittleEndian.Uint32(src[i:])))
			binary.LittleEndian.PutUint32(acc[i:], uint32(int32(applyI(a, b, op))))
		}
	default: // bytes
		for i := range acc {
			acc[i] = byte(applyI(int64(acc[i]), int64(src[i]), op))
		}
	}
}

func applyF(a, b float64, op Op) float64 {
	switch op {
	case OpSum:
		return a + b
	case OpMax:
		return math.Max(a, b)
	case OpMin:
		return math.Min(a, b)
	default:
		return a * b
	}
}

func applyI(a, b int64, op Op) int64 {
	switch op {
	case OpSum:
		return a + b
	case OpMax:
		if b > a {
			return b
		}
		return a
	case OpMin:
		if b < a {
			return b
		}
		return a
	default:
		return a * b
	}
}

// Gather concatenates every rank's count elements into root's recvBuf
// (size*count elements) on the root only (MPI_Gather).
func (c *Comm) Gather(sendBuf, recvBuf memspace.Addr, count int, dt Datatype, root int) error {
	if count < 0 {
		return ErrCount
	}
	if err := c.checkPeer(root, false); err != nil {
		return err
	}
	if err := c.enter(); err != nil {
		return err
	}
	bytes := int64(count) * dt.Size
	var writeA memspace.Addr
	var writeN int64
	if c.rank == root {
		writeA, writeN = recvBuf, bytes*int64(c.world.size)
	}
	c.hooks.PreCollective("MPI_Gather", sendBuf, bytes, writeA, writeN)

	payload, localErr := c.readBuf(sendBuf, count, dt)
	seq := c.collSeq
	c.collSeq++
	op := c.world.getColl(seq, "MPI_Gather")
	if err := c.world.contribute(op, seq, c.rank, "MPI_Gather", payload, localErr, func(op *collOp) {
		var out []byte
		for _, part := range op.contribs {
			out = append(out, part...)
		}
		op.result = out
	}); err != nil {
		return err
	}
	if op.err != nil {
		return op.err
	}
	if c.rank == root {
		if err := c.writeBuf(recvBuf, op.result); err != nil {
			return err
		}
	}
	c.stats.Collectives++
	c.countBufferKind(sendBuf)
	c.hooks.PostCollective("MPI_Gather", sendBuf, bytes, writeA, writeN)
	return nil
}

// Scatter distributes size*count elements from root's sendBuf, count per
// rank, into every rank's recvBuf (MPI_Scatter).
func (c *Comm) Scatter(sendBuf, recvBuf memspace.Addr, count int, dt Datatype, root int) error {
	if count < 0 {
		return ErrCount
	}
	if err := c.checkPeer(root, false); err != nil {
		return err
	}
	if err := c.enter(); err != nil {
		return err
	}
	bytes := int64(count) * dt.Size
	var readA memspace.Addr
	var readN int64
	if c.rank == root {
		readA, readN = sendBuf, bytes*int64(c.world.size)
	}
	c.hooks.PreCollective("MPI_Scatter", readA, readN, recvBuf, bytes)

	var payload []byte
	var localErr error
	if c.rank == root {
		payload, localErr = c.readBuf(sendBuf, count*c.world.size, dt)
	}
	seq := c.collSeq
	c.collSeq++
	op := c.world.getColl(seq, "MPI_Scatter")
	if err := c.world.contribute(op, seq, c.rank, "MPI_Scatter", payload, localErr, func(op *collOp) {
		op.result = op.contribs[root]
	}); err != nil {
		return err
	}
	if op.err != nil {
		return op.err
	}
	if int64(len(op.result)) != bytes*int64(c.world.size) {
		return fmt.Errorf("%w: scatter size mismatch: root provided %d bytes, need %d",
			ErrTruncate, len(op.result), bytes*int64(c.world.size))
	}
	chunk := op.result[int64(c.rank)*bytes : (int64(c.rank)+1)*bytes]
	if err := c.writeBuf(recvBuf, chunk); err != nil {
		return err
	}
	c.stats.Collectives++
	c.countBufferKind(recvBuf)
	c.hooks.PostCollective("MPI_Scatter", readA, readN, recvBuf, bytes)
	return nil
}
