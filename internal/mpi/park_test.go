package mpi

import (
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"cusango/internal/memspace"
)

// within runs f and fails the test if it does not return within d.
func within(t *testing.T, d time.Duration, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		f()
	}()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatalf("did not finish within %v (hung)", d)
	}
}

// pollUntil polls with Iprobe (or Test on an Irecv of the same envelope)
// until the message arrives or the poll fails.
func pollUntil(c *Comm, mem *memspace.Memory, useTest bool, src, tag int) error {
	if !useTest {
		for {
			found, _, err := c.Iprobe(src, tag)
			if err != nil || found {
				return err
			}
		}
	}
	req, err := c.Irecv(mem.Alloc(8, memspace.KindHostPageable), 1, Float64, src, tag)
	if err != nil {
		return err
	}
	for {
		done, _, err := c.Test(req)
		if err != nil || done {
			return err
		}
	}
}

// TestBoundedPollNudge: a bounded poll loop whose peer waits for the
// loop's nudge completes. Rank 0 polls a fixed number of times for a
// message rank 1 only sends after the nudge, so a poll that parked while
// rank 1 waits in Recv would hang the job; the park guard releases it.
// A third rank waiting for the final message checks that a rank blocked
// elsewhere does not count as running.
func TestBoundedPollNudge(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2} {
		for _, size := range []int{2, 3} {
			for _, useTest := range []bool{false, true} {
				t.Run(fmt.Sprintf("procs=%d/ranks=%d/test=%v", procs, size, useTest), func(t *testing.T) {
					runtime.GOMAXPROCS(procs)
					within(t, 5*time.Second, func() {
						errs := RunRanks(size, func(c *Comm, mem *memspace.Memory) error {
							return nudgeProgram(c, mem, useTest)
						})
						if err := FirstError(errs); err != nil {
							t.Error(err)
						}
					})
				})
			}
		}
	}
}

func nudgeProgram(c *Comm, mem *memspace.Memory, useTest bool) error {
	buf := allocF64(mem, memspace.KindHostPageable, 1)
	switch c.Rank() {
	case 0:
		var req *Request
		if useTest {
			var err error
			if req, err = c.Irecv(buf, 1, Float64, 1, 2); err != nil {
				return err
			}
		}
		for i := 0; i < 50; i++ {
			var found bool
			var err error
			if useTest {
				found, _, err = c.Test(req)
			} else {
				found, _, err = c.Iprobe(1, 2)
			}
			if err != nil {
				return err
			}
			if found {
				return errors.New("reply arrived before the nudge")
			}
		}
		if err := c.Send(buf, 1, Float64, 1, 1); err != nil {
			return err
		}
		if useTest {
			if _, err := c.Wait(req); err != nil {
				return err
			}
		} else if err := pollUntil(c, mem, false, 1, 2); err != nil {
			return err
		}
		if c.Size() > 2 {
			return c.Send(buf, 1, Float64, 2, 3)
		}
		return nil
	case 1:
		if _, err := c.Recv(buf, 1, Float64, 0, 1); err != nil {
			return err
		}
		return c.Send(buf, 1, Float64, 0, 2)
	default:
		_, err := c.Recv(buf, 1, Float64, 0, 3)
		return err
	}
}

// TestPollerParksWhileSenderSleeps: a poller whose sender first sleeps
// makes at most two fruitless polls — one to note the epoch, one that
// parks until the delivery — rather than spinning for the whole sleep.
// (Whether the second one parks depends on timing; that a parked poll
// is counted is checked below.)
func TestPollerParksWhileSenderSleeps(t *testing.T) {
	for _, useTest := range []bool{false, true} {
		t.Run(fmt.Sprintf("test=%v", useTest), func(t *testing.T) {
			var st Stats
			within(t, 5*time.Second, func() {
				errs := RunRanks(2, func(c *Comm, mem *memspace.Memory) error {
					if c.Rank() == 1 {
						time.Sleep(20 * time.Millisecond)
						return c.Send(allocF64(mem, memspace.KindHostPageable, 1), 1, Float64, 0, 0)
					}
					err := pollUntil(c, mem, useTest, 1, 0)
					st = c.Stats()
					return err
				})
				if err := FirstError(errs); err != nil {
					t.Error(err)
				}
			})
			if st.FruitlessPolls > 2 || st.ParkedPolls > 1 {
				t.Fatalf("fruitless=%d parked=%d, want at most 2 fruitless and 1 parked",
					st.FruitlessPolls, st.ParkedPolls)
			}
		})
	}
}

// waitParked waits until rank is parked (or blocked) in MPI.
func waitParked(t *testing.T, w *World, rank int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		w.mu.Lock()
		parked := w.waiting[rank]
		w.mu.Unlock()
		if parked {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("rank %d never parked", rank)
		}
	}
}

// TestParkedPollFailsOnDepartureOrCancel: a poll parked on a silent
// source wakes and fails with ErrAborted when the source dies or the
// job is cancelled from outside.
func TestParkedPollFailsOnDepartureOrCancel(t *testing.T) {
	for _, end := range []string{"death", "cancel"} {
		for _, useTest := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/test=%v", end, useTest), func(t *testing.T) {
				w := NewWorld(2)
				comms := attach(t, w)
				errCh := make(chan error, 1)
				go func() { errCh <- pollUntil(comms[0], comms[0].mem, useTest, 1, 0) }()
				waitParked(t, w, 0)
				if end == "death" {
					w.Abort(1, errors.New("rank died"))
				} else {
					w.Cancel(errors.New("deadline"))
				}
				within(t, 5*time.Second, func() {
					if err := <-errCh; !errors.Is(err, ErrAborted) {
						t.Errorf("poll returned %v, want ErrAborted", err)
					}
				})
				if st := comms[0].Stats(); st.ParkedPolls != 1 || st.FruitlessPolls != 2 {
					t.Errorf("fruitless=%d parked=%d, want 2 and 1", st.FruitlessPolls, st.ParkedPolls)
				}
			})
		}
	}
}

// TestRecvFromReturnedRankFails: a rank whose body returned without
// finalizing has departed, so a receive from it fails instead of
// waiting forever.
func TestRecvFromReturnedRankFails(t *testing.T) {
	within(t, 5*time.Second, func() {
		errs := RunRanks(2, func(c *Comm, mem *memspace.Memory) error {
			if c.Rank() == 1 {
				return nil
			}
			_, err := c.Recv(mem.Alloc(8, memspace.KindHostPageable), 1, Float64, 1, 0)
			return err
		})
		if !errors.Is(errs[0], ErrAborted) || errs[1] != nil {
			t.Errorf("errs = %v, want ErrAborted on rank 0 only", errs)
		}
	})
}
