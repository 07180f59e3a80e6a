package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"time"

	"cusango/internal/campaign"
	"cusango/internal/serve"
	"cusango/internal/testsuite"
)

// campaignSalt is the cache salt of both the served and the offline
// campaigns; the canonical report bytes do not depend on it.
const campaignSalt = "e2ebench"

// excludedCase is left out of the served matrix: its chaos record is not
// a function of the job (see CHANGES.md, FOUND on
// must/send_count_exceeds_allocation), so no fixed reference can judge
// it.
const excludedCase = "must/send_count_exceeds_allocation"

// fullGroups are the case-name filters the matrix is submitted under,
// one campaign each (the serve API takes one substring filter per
// campaign). Together they cover every suite case but excludedCase,
// each once; TestCampaignGroupsCover checks that.
var fullGroups = []string{
	"cuda-to-mpi/", "local/", "mpi-modes/", "mpi-to-cuda/", "wide-sched/",
	"must/allreduce", "must/bcast", "must/recv_offset_extent", "must/request_leak", "must/send_type_mismatch",
}

// group is one campaign of the served matrix and its offline reference.
type group struct {
	req  serve.Request
	jobs []campaign.Job
	want []byte // canonical JSONL of the offline campaign.Run
}

// campaignRequest is one group's matrix: its suite cases ×
// suite/chaos/replay/explore × both shadow engines, chaos seeds
// 1..campaignSeeds at the default fault rate.
func campaignRequest(sz sizes, filter string) serve.Request {
	seeds, rate := sz.campaignSeeds, 0.05
	return serve.Request{
		Kinds:   []string{"suite", "chaos", "replay", "explore"},
		Engines: []string{"fast", "slow"},
		Seeds:   &seeds, FaultsRate: &rate,
		Filter: filter,
	}
}

// expandGroups expands every group's request into its jobs.
func expandGroups(sz sizes) ([]*group, int, error) {
	var gs []*group
	total := 0
	for _, f := range sz.campaignGroups {
		g := &group{req: campaignRequest(sz, f)}
		var err error
		if g.jobs, err = g.req.Jobs(); err != nil {
			return nil, 0, fmt.Errorf("group %q: %w", f, err)
		}
		total += len(g.jobs)
		gs = append(gs, g)
	}
	return gs, total, nil
}

// runOffline runs every group offline through campaign.Run: the
// reference reports the served streams must equal.
func runOffline(groups []*group, workers int) error {
	for _, g := range groups {
		rep := campaign.Run(g.jobs, testsuite.ExecuteJob, campaign.Options{Workers: workers, Salt: campaignSalt})
		var buf bytes.Buffer
		if err := rep.WriteJSONL(&buf, false); err != nil {
			return err
		}
		g.want = buf.Bytes()
	}
	return nil
}

// runServe is the serve-campaign workload. Each pass starts a fresh
// in-process cusan-serve (in-memory cache, so nothing is a cache hit) on
// a loopback port and, as one closed-loop client, submits the groups'
// campaigns one after the other over HTTP, streaming each to its
// terminal record. A pass's time runs from the first submit to the last
// terminal record; the streams are judged after it. The first pass is
// cold and is the set-up: set-up time runs from the process's start to
// its last terminal record. The offline reference reports are computed
// after it, then the cold pass is checked and measured passes follow.
func runServe(e *env, o *outcome) {
	workers := runtime.NumCPU()
	labels := caseLabels()
	groups, total, err := expandGroups(e.sz)
	if !o.op(err) {
		return
	}
	// pass runs one round; round 0 is the cold set-up pass, checked
	// once the offline reports exist, later rounds are checked at once.
	pass := func(round int) (*servedPass, bool) {
		name := "round"
		if round == 0 {
			name = "setup"
		}
		rs := e.tr.begin(name, 0)
		defer e.tr.end(rs)
		runtime.GC()
		var p *servedPass
		if e.tr != nil && round == 1 {
			alloc, gcs := memDelta(func() { p, err = servePass(e, groups, total, workers, rs) })
			o.layer.set("go.alloc_mb", alloc, "MB")
			o.layer.set("go.gc_cycles", float64(gcs), "count")
		} else {
			p, err = servePass(e, groups, total, workers, rs)
		}
		if err == nil && round > 0 {
			err = checkServedPass(p, groups, labels)
		}
		return p, o.op(err)
	}
	cold, ok := pass(0)
	if !ok {
		return
	}
	e.setupDone(o, cold.done)
	sp := e.tr.begin("campaign.offline", 0)
	err = runOffline(groups, workers)
	e.tr.end(sp)
	if !o.op(err) || !o.op(checkServedPass(cold, groups, labels)) {
		return
	}

	var walls, submits, firsts, util []float64
	busy := map[string][]float64{}
	var last *servedPass
	start := time.Now()
	for round := 1; round <= e.sz.minRounds || time.Since(start) < e.seconds; round++ {
		p, ok := pass(round)
		if !ok {
			return
		}
		fmt.Fprintf(e.log, "serve round %d: %d campaigns, %d jobs in %.3fs\n", round, len(p.campaigns), total, p.wall.Seconds())
		last = p
		walls = append(walls, p.wall.Seconds())
		firsts = append(firsts, p.firstRecord.Seconds())
		for _, c := range p.campaigns {
			submits = append(submits, c.submit.Seconds())
		}
		var sum float64
		for k, d := range p.busy {
			busy[k] = append(busy[k], d.Seconds())
			sum += d.Seconds()
		}
		util = append(util, sum/(p.wall.Seconds()*float64(workers)))
	}

	wall := median(walls)
	o.e2e.set("check_s", wall, "s")
	l := o.layer
	l.set("serve.jobs_per_s", float64(total)/wall, "jobs/s")
	l.set("serve.submit_s", median(submits), "s")
	l.set("serve.first_record_s", median(firsts), "s")
	l.set("campaign.jobs", float64(total), "count")
	for _, k := range []string{"suite", "replay", "chaos", "explore"} {
		l.set("campaign."+k+"_busy_s", median(busy[k]), "s")
	}
	if e.tr != nil {
		l.set("campaign.utilization", median(util), "ratio")
	}
	var streamed, sched, pruned, injected int64
	for _, c := range last.campaigns {
		streamed += int64(len(c.body))
		for _, r := range c.records {
			sched += int64(r.Explored)
			pruned += int64(r.Pruned)
			injected += int64(len(r.Injected))
		}
	}
	l.set("serve.stream_mb", float64(streamed)/(1<<20), "MB")
	l.set("explore.schedules", float64(sched), "count")
	l.set("explore.pruned", float64(pruned), "count")
	l.set("faults.injected", float64(injected), "count")
}

// servedPass is one round's outcome.
type servedPass struct {
	campaigns           []*servedCampaign
	wall, firstRecord   time.Duration
	done                time.Time // when the last terminal record arrived
	executed, cacheHits int64
	busy                map[string]time.Duration // traced mode only
}

// servedCampaign is one submitted campaign's outcome.
type servedCampaign struct {
	id        string
	submitted int
	submit    time.Duration // POST round trip
	body      []byte
	records   []*campaign.Record
}

// daemon is an in-process cusan-serve on a loopback port.
type daemon struct {
	base   string
	client *http.Client
	close  func()

	mu   sync.Mutex
	busy map[string]time.Duration // per job kind, traced mode only
}

// startDaemon starts a fresh daemon. In the traced mode it wraps the
// daemon's default executor to record a span per job and sum busy time
// per kind; the executor itself is unchanged.
func startDaemon(e *env, workers, parent int) (*daemon, error) {
	d := &daemon{client: &http.Client{}}
	cfg := serve.Config{Workers: workers, Salt: campaignSalt}
	if e.tr != nil {
		exec := testsuite.Executor(0)
		d.busy = map[string]time.Duration{}
		cfg.Exec = func(j campaign.Job) *campaign.Record {
			t0 := time.Now()
			r := exec(context.Background(), j)
			t1 := time.Now()
			e.tr.add("job:"+j.Kind, parent, t0, t1)
			d.mu.Lock()
			d.busy[j.Kind] += t1.Sub(t0)
			d.mu.Unlock()
			return r
		}
	}
	srv, err := serve.New(cfg)
	if err != nil {
		return nil, fmt.Errorf("start daemon: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Drain()
		return nil, fmt.Errorf("listen on loopback: %w", err)
	}
	hs := &http.Server{Handler: srv.Handler()}
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = hs.Serve(ln) // returns http.ErrServerClosed once closed
	}()
	d.close = func() {
		_ = hs.Close()
		<-served
		srv.Drain()
	}
	d.base = "http://" + ln.Addr().String()
	return d, nil
}

// servePass runs one round on a fresh daemon: it submits and streams
// every group, then checks that every job was executed and none came
// from the cache, and that a seed-chosen resume reads a true tail.
func servePass(e *env, groups []*group, total, workers, parent int) (*servedPass, error) {
	d, err := startDaemon(e, workers, parent)
	if err != nil {
		return nil, err
	}
	defer d.close()
	p := &servedPass{}
	t0 := time.Now()
	for _, g := range groups {
		c, err := d.runCampaign(e, g.req, t0, &p.firstRecord, parent)
		if err != nil {
			return nil, err
		}
		p.campaigns = append(p.campaigns, c)
	}
	p.done = time.Now()
	p.wall = p.done.Sub(t0)

	var status serve.ServerStatus
	if err := getJSON(d.client, d.base+"/v1/status", &status); err != nil {
		return nil, err
	}
	p.executed, p.cacheHits = status.Executed, status.CacheHits
	if err := checkExecuted(p, total); err != nil {
		return nil, err
	}
	c := p.campaigns[e.seed%uint64(len(p.campaigns))]
	if err := d.checkResume(c, e.seed); err != nil {
		return nil, err
	}
	d.mu.Lock()
	p.busy = d.busy
	d.mu.Unlock()
	return p, nil
}

// checkServedPass parses each served stream's job records and judges it
// against its group's offline report and the case labels.
func checkServedPass(p *servedPass, groups []*group, labels map[string]label) error {
	for i, c := range p.campaigns {
		var err error
		if c.records, err = jobRecords(c.body); err != nil {
			return err
		}
		if err := checkServed(c, groups[i], labels); err != nil {
			return err
		}
	}
	return nil
}

// runCampaign submits one campaign and reads its stream to the terminal
// record. The first job line of the round sets *first (time since t0).
func (d *daemon) runCampaign(e *env, req serve.Request, t0 time.Time, first *time.Duration, parent int) (*servedCampaign, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	sp := e.tr.begin("serve.campaign", parent)
	defer e.tr.end(sp)
	c := &servedCampaign{}
	ss := e.tr.begin("serve.submit", sp)
	ts := time.Now()
	resp, err := d.client.Post(d.base+"/v1/campaigns", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, fmt.Errorf("submit: %w", err)
	}
	var sub serve.SubmitResponse
	err = json.NewDecoder(resp.Body).Decode(&sub)
	resp.Body.Close()
	c.submit = time.Since(ts)
	e.tr.end(ss)
	if err != nil || resp.StatusCode != http.StatusAccepted {
		return nil, fmt.Errorf("submit: status %d: %v", resp.StatusCode, err)
	}
	c.id, c.submitted = sub.ID, sub.Jobs

	st := e.tr.begin("serve.stream", sp)
	defer e.tr.end(st)
	resp, err = d.client.Get(d.base + "/v1/campaigns/" + sub.ID + "/stream")
	if err != nil {
		return nil, fmt.Errorf("stream: %w", err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	rd := bufio.NewReaderSize(resp.Body, 1<<16)
	for {
		line, err := rd.ReadBytes('\n')
		buf.Write(line)
		if *first == 0 && bytes.Contains(line, []byte(`"type":"job"`)) {
			*first = time.Since(t0)
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("stream: %w", err)
		}
	}
	c.body = buf.Bytes()
	return c, nil
}

func getJSON(c *http.Client, url string, v any) error {
	resp, err := c.Get(url)
	if err != nil {
		return fmt.Errorf("GET %s: %w", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// jobRecords parses the job lines of a report.
func jobRecords(body []byte) ([]*campaign.Record, error) {
	var out []*campaign.Record
	for _, line := range bytes.SplitAfter(body, []byte("\n")) {
		if !bytes.Contains(line, []byte(`"type":"job"`)) {
			continue
		}
		r := new(campaign.Record)
		if err := json.Unmarshal(line, r); err != nil {
			return nil, fmt.Errorf("parse job line: %w", err)
		}
		out = append(out, r)
	}
	return out, nil
}

// label is a suite case's hand-written expectation.
type label struct{ race, issue bool }

func caseLabels() map[string]label {
	m := map[string]label{}
	for _, c := range testsuite.Cases() {
		m[c.Name] = label{race: c.ExpectRace, issue: c.ExpectIssue != nil}
	}
	return m
}

// checkServed judges one served campaign: the stream is the offline
// report byte for byte, and every verdict matches its case's label.
func checkServed(c *servedCampaign, g *group, labels map[string]label) error {
	if c.submitted != len(g.jobs) {
		return fmt.Errorf("daemon accepted %d jobs, the matrix has %d", c.submitted, len(g.jobs))
	}
	if !bytes.Equal(c.body, g.want) {
		return fmt.Errorf("streamed report (%d bytes, %d lines) differs from the offline campaign.Run report (%d bytes, %d lines)%s",
			len(c.body), bytes.Count(c.body, []byte("\n")), len(g.want), bytes.Count(g.want, []byte("\n")), firstDiff(c.body, g.want))
	}
	if len(c.records) != len(g.jobs) {
		return fmt.Errorf("stream holds %d job records, want %d", len(c.records), len(g.jobs))
	}
	return checkLabels(c.records, labels)
}

// checkExecuted: the daemon executed every submitted job and served none
// from its cache.
func checkExecuted(p *servedPass, total int) error {
	if p.executed != int64(total) || p.cacheHits != 0 {
		return fmt.Errorf("daemon executed %d jobs with %d cache hits, want %d and 0", p.executed, p.cacheHits, total)
	}
	return nil
}

// checkLabels compares each record's verdict with its case's label.
func checkLabels(records []*campaign.Record, labels map[string]label) error {
	for i, r := range records {
		lb, ok := labels[r.Case]
		if !ok {
			return fmt.Errorf("record %d: unknown case %q", i, r.Case)
		}
		if r.Verdict != campaign.VerdictPass {
			return fmt.Errorf("record %d (%s %s %s): verdict %q", i, r.Kind, r.Case, r.Engine, r.Verdict)
		}
		switch r.Kind {
		case testsuite.KindSuite, testsuite.KindReplay:
			if (r.Races > 0) != lb.race || (r.Issues > 0) != lb.issue {
				return fmt.Errorf("record %d (%s %s %s): races=%d issues=%d, label race=%v issue=%v",
					i, r.Kind, r.Case, r.Engine, r.Races, r.Issues, lb.race, lb.issue)
			}
		case testsuite.KindExplore:
			if (r.RacySchedules > 0) != lb.race {
				return fmt.Errorf("record %d (explore %s %s): %d racy schedules, label race=%v",
					i, r.Case, r.Engine, r.RacySchedules, lb.race)
			}
		}
	}
	return nil
}

// checkResume re-reads the finished campaign's stream from a seed-chosen
// line offset: it must be exactly the tail of the full stream.
func (d *daemon) checkResume(c *servedCampaign, seed uint64) error {
	lines := bytes.SplitAfter(c.body, []byte("\n"))
	if len(lines) > 0 && len(lines[len(lines)-1]) == 0 {
		lines = lines[:len(lines)-1]
	}
	if len(lines) == 0 {
		return errors.New("resume: empty stream")
	}
	from := int(seed % uint64(len(lines)))
	resp, err := d.client.Get(fmt.Sprintf("%s/v1/campaigns/%s/stream?from=%d", d.base, c.id, from))
	if err != nil {
		return fmt.Errorf("resume: %w", err)
	}
	defer resp.Body.Close()
	got, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("resume: %w", err)
	}
	if want := bytes.Join(lines[from:], nil); !bytes.Equal(got, want) {
		return fmt.Errorf("resume from line %d: got %d bytes, want the %d-byte tail", from, len(got), len(want))
	}
	return nil
}

// firstDiff describes the first differing line of two reports.
func firstDiff(got, want []byte) string {
	g := strings.Split(string(got), "\n")
	w := strings.Split(string(want), "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			return fmt.Sprintf("; first difference at line %d:\n  got  %s\n  want %s", i, g[i], w[i])
		}
	}
	return ""
}
