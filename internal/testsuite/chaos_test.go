package testsuite

import (
	"bytes"
	"runtime"
	"testing"

	"cusango/internal/campaign"
	"cusango/internal/faults"
	"cusango/internal/tsan"
)

var bothEngines = []tsan.Engine{tsan.EngineBatched, tsan.EngineSlow}

// TestChaosSoak is the acceptance soak: >= 25 seeded fault schedules x
// both shadow engines over the whole classified suite. Correct cases
// must never produce a race report under injected faults, every error
// must be attributable to an injected fault (directly or as abort
// collateral), and the checker must never crash.
func TestChaosSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak is the long acceptance run")
	}
	seeds := make([]uint64, 25)
	for i := range seeds {
		seeds[i] = uint64(i + 1)
	}
	rep := ChaosSoak(seeds, 0.05, bothEngines)
	t.Log(rep)
	for _, v := range rep.Violations {
		t.Error(v)
	}
	if rep.Faulted == 0 {
		t.Fatal("no schedule fired a fault; the soak is vacuous")
	}
	if rep.Degraded > 0 {
		// Not a violation (contained crashes are the design), but worth
		// surfacing: today's fault set should not crash the checker.
		t.Logf("note: %d contained checker crash(es)", rep.Degraded)
	}
}

// TestChaosReproduction: every fault observed in a sampled soak slice
// replays exactly from its (seed, site, occurrence, rank) triple.
func TestChaosReproduction(t *testing.T) {
	cases := Cases()
	reproduced := 0
	for seed := uint64(1); seed <= 6 && reproduced < 12; seed++ {
		plan := faults.Seeded(seed, 0.08)
		for _, c := range cases {
			if reproduced >= 12 {
				break
			}
			v := RunChaosCase(c, plan, tsan.EngineBatched)
			for _, f := range v.Injected {
				if err := ReproduceFault(c, f, tsan.EngineBatched); err != nil {
					t.Errorf("seed %d: %v", seed, err)
				}
				reproduced++
				break // one fault per (case, seed) keeps the test fast
			}
		}
	}
	if reproduced == 0 {
		t.Fatal("no faults observed to reproduce; test is vacuous")
	}
}

// TestChaosDeterministic: the same (case, plan, engine) run twice fires
// the identical fault sequence and yields the identical verdict.
func TestChaosDeterministic(t *testing.T) {
	plan := faults.Seeded(7, 0.1)
	for _, c := range Cases()[:8] {
		a := RunChaosCase(c, plan, tsan.EngineBatched)
		b := RunChaosCase(c, plan, tsan.EngineBatched)
		if len(a.Injected) != len(b.Injected) || a.Races != b.Races || a.OK() != b.OK() {
			t.Fatalf("%s: nondeterministic chaos run: %v vs %v", c.Name, a, b)
		}
		for i := range a.Injected {
			if a.Injected[i].Spec() != b.Injected[i].Spec() {
				t.Fatalf("%s: fault %d differs: %s vs %s",
					c.Name, i, a.Injected[i].Spec(), b.Injected[i].Spec())
			}
		}
	}
}

// TestChaosNilPlanMatchesBaseline: a nil plan is a plain suite run —
// every case classifies exactly as the baseline expects.
func TestChaosNilPlanMatchesBaseline(t *testing.T) {
	for _, c := range Cases() {
		v := RunChaosCase(c, nil, tsan.EngineBatched)
		if !v.OK() {
			t.Errorf("nil-plan chaos run violated: %v", v)
		}
		if len(v.Injected) != 0 {
			t.Errorf("%s: nil plan injected %v", c.Name, v.Injected)
		}
		if (v.Races > 0) != c.ExpectRace {
			t.Errorf("%s: nil-plan races=%d, expect race=%v", c.Name, v.Races, c.ExpectRace)
		}
	}
}

// TestChaosRecordStable: the chaos job in which rank 0 ignores the
// error of its own injected abort and sends again yields the same
// canonical record bytes on every run. Before a dead rank's later
// operations failed, whether rank 1 matched that second send or saw the
// death first was a wall-clock race that flipped the record's app_fault.
func TestChaosRecordStable(t *testing.T) {
	const runs = 40
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	for _, eng := range bothEngines {
		j := campaign.Job{
			Kind: KindChaos, Case: "must/send_count_exceeds_allocation", Engine: eng.String(),
			Seed: 5, Faults: faults.Seeded(5, 0.05).String(),
		}
		var want []byte
		for i := 0; i < runs; i++ {
			got, err := ExecuteJob(j).JSONL(false)
			if err != nil {
				t.Fatal(err)
			}
			if i == 0 {
				want = got
				if !bytes.Contains(got, []byte(`"injected":["mpi-abort@0:r0"]`)) {
					t.Fatalf("%s: seed 5 no longer fires mpi-abort@0:r0; the test is vacuous: %s", eng, got)
				}
				continue
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s run %d:\n got %s\nwant %s", eng, i, got, want)
			}
		}
	}
}
