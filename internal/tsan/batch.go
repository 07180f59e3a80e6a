package tsan

import "cusango/internal/memspace"

// RangeOp is one range annotation submitted to AnnotateBatch.
type RangeOp struct {
	Addr  memspace.Addr
	Len   int64
	Write bool
	Info  *AccessInfo
}

// AnnotateBatch records all ops as accesses by the current fiber at its
// current epoch — the shape of a kernel launch annotating every pointer
// argument. It is equivalent to issuing the corresponding
// ReadRange/WriteRange calls in order, and additionally counts the ops
// in Stats.BatchOps.
func (s *Sanitizer) AnnotateBatch(ops []RangeOp) {
	s.stats.BatchOps += int64(len(ops))
	for i := range ops {
		if ops[i].Write {
			s.WriteRange(ops[i].Addr, ops[i].Len, ops[i].Info)
		} else {
			s.ReadRange(ops[i].Addr, ops[i].Len, ops[i].Info)
		}
	}
}
