package main

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"cusango/internal/campaign"
	"cusango/internal/core"
	"cusango/internal/cusan"
	"cusango/internal/testsuite"
	"cusango/internal/trace"
)

// Each check must pass on good output and fail on a perturbed residual,
// a flipped race verdict, or a dropped stream line.

func TestResidualChecks(t *testing.T) {
	f, l := 1.25e-3, 3.5e-7
	if err := checkJacobiResidual(f, l, f, l); err != nil {
		t.Errorf("exact residuals rejected: %v", err)
	}
	if err := checkJacobiResidual(f*(1+1e-14), l, f, l); err != nil {
		t.Errorf("summation-order difference rejected: %v", err)
	}
	if checkJacobiResidual(f*(1+1e-7), l, f, l) == nil {
		t.Error("perturbed first residual accepted")
	}
	if checkJacobiResidual(f, math.Nextafter(l, 1)*(1+1e-9), f, l) == nil {
		t.Error("perturbed last residual accepted")
	}
	if checkJacobiResidual(math.NaN(), l, f, l) == nil {
		t.Error("NaN residual accepted")
	}

	if err := checkTealeafResidual(2496*100, 1e-130, 2496); err != nil {
		t.Errorf("good tealeaf residuals rejected: %v", err)
	}
	for _, c := range []struct{ first, last float64 }{
		{2496*100 + 1e-9, 1e-130}, {2496 * 100, 0}, {2496 * 100, math.NaN()}, {2496 * 100, math.Inf(1)},
	} {
		if checkTealeafResidual(c.first, c.last, 2496) == nil {
			t.Errorf("tealeaf residuals (%v, %v) accepted", c.first, c.last)
		}
	}

	if err := checkAgainstCG(300, 600.0/121, 300, 600.0/121); err != nil {
		t.Errorf("matching CG rejected: %v", err)
	}
	if checkAgainstCG(300, 600.0/121*(1+1e-6), 300, 600.0/121) == nil {
		t.Error("perturbed CG residual accepted")
	}
}

func TestBitIdentical(t *testing.T) {
	a := &flavorRun{first: 0.1, last: 0.2}
	if err := checkBitIdentical(a, &flavorRun{first: 0.1, last: 0.2}); err != nil {
		t.Errorf("identical residuals rejected: %v", err)
	}
	if checkBitIdentical(a, &flavorRun{first: 0.1, last: math.Nextafter(0.2, 1)}) == nil {
		t.Error("residual one ulp off accepted")
	}
}

func cleanResult(kernels, memcpys int64) *core.Result {
	res := &core.Result{Ranks: make([]core.RankResult, 2)}
	for r := range res.Ranks {
		res.Ranks[r].Rank = r
		res.Ranks[r].CudaCtrs = cusan.Counters{KernelCalls: kernels, Memcpys: memcpys, HBAnnotations: 7}
	}
	return res
}

func TestCleanRunAndReplayChecks(t *testing.T) {
	live := cleanResult(1202, 600)
	if err := checkCleanRun(live, 1202, 600); err != nil {
		t.Errorf("clean run rejected: %v", err)
	}
	if checkCleanRun(live, 1204, 600) == nil {
		t.Error("skipped iteration (kernel calls short of the closed form) accepted")
	}
	racy := cleanResult(1202, 600)
	racy.Ranks[1].Races = 1
	if checkCleanRun(racy, 1202, 600) == nil {
		t.Error("race on the correct program (flipped verdict) accepted")
	}

	reps := func() []*trace.ReplayResult {
		return []*trace.ReplayResult{
			{Counters: live.Ranks[0].CudaCtrs}, {Counters: live.Ranks[1].CudaCtrs},
		}
	}
	if err := checkReplay(live, reps()); err != nil {
		t.Errorf("faithful replay rejected: %v", err)
	}
	flipped := reps()
	flipped[0].Races = 2
	if checkReplay(live, flipped) == nil {
		t.Error("replay with a flipped race verdict accepted")
	}
	drift := reps()
	drift[1].Counters.HBAnnotations++
	if checkReplay(live, drift) == nil {
		t.Error("replay with other Table I counters accepted")
	}

	if err := checkRacyFlagged("jacobi", 3, 3); err != nil {
		t.Errorf("flagged racy variant rejected: %v", err)
	}
	if checkRacyFlagged("jacobi", 0, 3) == nil || checkRacyFlagged("jacobi", 3, 0) == nil {
		t.Error("racy variant reported race-free (flipped verdict) accepted")
	}
}

func TestServedChecks(t *testing.T) {
	labels := map[string]label{"a/racy": {race: true}, "a/clean": {}, "a/issue": {issue: true}}
	recs := []*campaign.Record{
		{V: 1, Type: "job", Kind: "suite", Case: "a/racy", Verdict: "pass", Races: 2},
		{V: 1, Type: "job", Kind: "replay", Case: "a/clean", Verdict: "pass"},
		{V: 1, Type: "job", Kind: "suite", Case: "a/issue", Verdict: "pass", Issues: 1},
		{V: 1, Type: "job", Kind: "explore", Case: "a/racy", Verdict: "pass", RacySchedules: 3},
		{V: 1, Type: "job", Kind: "explore", Case: "a/clean", Verdict: "pass"},
		{V: 1, Type: "job", Kind: "chaos", Case: "a/clean", Verdict: "pass", Races: 0},
	}
	if err := checkLabels(recs, labels); err != nil {
		t.Fatalf("labelled records rejected: %v", err)
	}
	for i, flip := range []func(r *campaign.Record){
		func(r *campaign.Record) { r.Races = 0 },
		func(r *campaign.Record) { r.Races = 1 },
		func(r *campaign.Record) { r.Issues = 0 },
		func(r *campaign.Record) { r.RacySchedules = 0 },
		func(r *campaign.Record) { r.RacySchedules = 1 },
		func(r *campaign.Record) { r.Verdict = "fail" },
	} {
		cp := make([]*campaign.Record, len(recs))
		for j, r := range recs {
			c := *r
			cp[j] = &c
		}
		flip(cp[i])
		if checkLabels(cp, labels) == nil {
			t.Errorf("flipped record %d accepted", i)
		}
	}

	var want bytes.Buffer
	want.Write(campaign.HeaderLine(len(recs)))
	for _, r := range recs {
		line, err := r.JSONL(false)
		if err != nil {
			t.Fatal(err)
		}
		want.Write(line)
	}
	want.WriteString(`{"v":1,"type":"summary"}` + "\n")
	groups := []*group{{jobs: make([]campaign.Job, len(recs)), want: want.Bytes()}}
	served := func(body []byte) *servedPass {
		return &servedPass{campaigns: []*servedCampaign{{body: body, submitted: len(recs)}}}
	}
	if err := checkServedPass(served(want.Bytes()), groups, labels); err != nil {
		t.Errorf("faithful stream rejected: %v", err)
	}
	lines := bytes.SplitAfter(want.Bytes(), []byte("\n"))
	dropped := bytes.Join(append(append([][]byte{}, lines[:3]...), lines[4:]...), nil)
	if checkServedPass(served(dropped), groups, labels) == nil {
		t.Error("stream with a dropped line accepted")
	}
	if checkExecuted(&servedPass{executed: 6}, 6) != nil {
		t.Error("fully executed campaign rejected")
	}
	if checkExecuted(&servedPass{executed: 5, cacheHits: 1}, 6) == nil {
		t.Error("campaign served partly from cache accepted")
	}
}

// The served groups cover every suite case but the excluded one, once.
func TestCampaignGroupsCover(t *testing.T) {
	for _, c := range testsuite.Cases() {
		n := 0
		for _, f := range fullGroups {
			if strings.Contains(c.Name, f) {
				n++
			}
		}
		want := 1
		if c.Name == excludedCase {
			want = 0
		}
		if n != want {
			t.Errorf("case %s is in %d groups, want %d", c.Name, n, want)
		}
	}
}
