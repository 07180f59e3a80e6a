package mpi

import (
	"fmt"
	"sync"

	"cusango/internal/memspace"
)

// RunRanks is a convenience launcher (mpirun analog) for tests and small
// programs: it creates a world of size ranks, gives each rank its own
// address space and communicator, runs body on one goroutine per rank,
// and returns the per-rank results (index = rank). A rank whose body
// returns (or panics) departs as Finalize would record it, so a peer
// still waiting on it fails with ErrAborted instead of hanging.
//
// The full toolchain (internal/core) builds worlds explicitly so it can
// attach instrumented sessions; RunRanks is the uninstrumented path.
func RunRanks(size int, body func(c *Comm, mem *memspace.Memory) error) []error {
	w := NewWorld(size)
	errs := make([]error, size)
	var wg sync.WaitGroup
	for rank := 0; rank < size; rank++ {
		mem := memspace.New()
		comm, err := w.AttachRank(rank, mem, nil)
		if err != nil {
			errs[rank] = err
			continue
		}
		wg.Add(1)
		go func(rank int, comm *Comm, mem *memspace.Memory) {
			defer wg.Done()
			defer w.depart(rank)
			defer func() {
				if r := recover(); r != nil {
					errs[rank] = fmt.Errorf("mpi: rank %d panicked: %v", rank, r)
				}
			}()
			errs[rank] = body(comm, mem)
		}(rank, comm, mem)
	}
	wg.Wait()
	return errs
}

// FirstError returns the first non-nil error of a per-rank result slice.
func FirstError(errs []error) error {
	for _, e := range errs {
		if e != nil {
			return e
		}
	}
	return nil
}
