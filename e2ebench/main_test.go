package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// benchmarkFile is the part of BENCHMARK.json the self-test checks.
type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

// positiveLayers are the per-layer metrics each workload must measure
// above zero; the rest may read 0 there (a layer the workload does not
// exercise, or a fast path the app never takes).
var positiveLayers = map[string][]string{
	"jacobi-check": appLayers,
	"tealeaf-cg": append(appLayers, "must.nonblocking_calls", "must.completions",
		"must.fibers_created", "mpi.waits"),
	"serve-campaign": {
		"campaign.jobs", "campaign.suite_busy_s", "campaign.replay_busy_s",
		"campaign.chaos_busy_s", "campaign.explore_busy_s", "campaign.utilization",
		"explore.schedules", "explore.pruned", "faults.injected",
		"serve.jobs_per_s", "serve.submit_s", "serve.first_record_s", "serve.stream_mb",
		"go.alloc_mb", "host.ref_loop_s", "traced.total_s",
	},
}

var appLayers = []string{
	"core.vanilla_s", "core.check_s", "core.tsan_s", "core.must_s", "core.cusan_s",
	"core.modeled_rss_mb", "core.vanilla_rss_mb", "replay.replay_s", "replay.sync_only_s",
	"cuda.kernel_calls", "cuda.memcpys", "cuda.sync_calls",
	"cusan.tracked_mb", "cusan.read_ranges", "cusan.write_ranges", "cusan.fiber_switches",
	"cusan.hb_annotations", "cusan.ha_annotations",
	"tsan.granules", "tsan.fast_granules", "tsan.pages", "tsan.shadow_mb",
	"mpi.bytes_sent_mb", "mpi.collectives",
	"trace.events", "trace.mb", "trace.record_s", "trace.decode_s", "trace.encode_s",
	"go.alloc_mb", "host.ref_loop_s", "traced.total_s",
}

// TestSelf runs every workload at a tiny size, untraced and traced, and
// checks the printed result against BENCHMARK.json.
func TestSelf(t *testing.T) {
	bf := loadBenchmarkFile(t)
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the command has %d", len(bf.Workloads), len(workloads))
	}
	for _, w := range bf.Workloads {
		for _, traced := range []string{"0", "1"} {
			t.Run(w.Name+"/trace="+traced, func(t *testing.T) {
				out := t.TempDir()
				var stdout, stderr bytes.Buffer
				code := run([]string{"--workload", w.Name, "--seed", "5", "--seconds", "0.01",
					"--trace", traced, "-out", out}, &stdout, &stderr, tinySizes)
				if code != 0 {
					t.Fatalf("exit %d\nstdout: %s\nstderr: %s", code, stdout.String(), stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var res struct {
					Correct   *bool
					Attempted *int64
					Failed    *int64
					Metrics   map[string]metric
				}
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result: %v", err)
				}
				if res.Correct == nil || !*res.Correct || res.Attempted == nil || *res.Attempted < 1 ||
					res.Failed == nil || *res.Failed != 0 {
					t.Fatalf("result counts: %s", lines[len(lines)-1])
				}
				want := bf.EndToEnd
				positive := map[string]bool{}
				for _, m := range want {
					positive[m.Name] = true
				}
				if traced == "1" {
					want = bf.PerLayer
					positive = map[string]bool{}
					for _, n := range positiveLayers[w.Name] {
						positive[n] = true
					}
					if _, err := os.Stat(filepath.Join(out, w.Name+".trace.json")); err != nil {
						t.Errorf("no span file: %v", err)
					}
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("printed %d metrics, BENCHMARK.json defines %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					switch {
					case !ok:
						t.Errorf("metric %s not printed", m.Name)
					case got.Unit != m.Unit:
						t.Errorf("metric %s: unit %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
					case positive[m.Name] && !(got.Value > 0):
						t.Errorf("metric %s = %v, want > 0", m.Name, got.Value)
					case got.Value < 0:
						t.Errorf("metric %s = %v, want >= 0", m.Name, got.Value)
					}
				}
			})
		}
	}
}

// TestSpansChrome checks the span file is Chrome trace_event JSON with
// parent links.
func TestSpansChrome(t *testing.T) {
	tr := newTracer(processStart)
	root := tr.begin("round", 0)
	child := tr.begin("core.check", root)
	tr.end(child)
	tr.add("job:suite", root, processStart, processStart)
	tr.end(root)
	path := filepath.Join(t.TempDir(), "x.trace.json")
	if err := tr.writeChrome(path); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var f struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	if len(f.TraceEvents) != 3 {
		t.Fatalf("%d events, want 3", len(f.TraceEvents))
	}
	for _, ev := range f.TraceEvents {
		if ev.Ph != "X" || ev.Dur < 0 {
			t.Errorf("event %+v is not a complete event", ev)
		}
		if ev.Name != "round" && ev.Args["parent"] != root {
			t.Errorf("event %s: parent %d, want %d", ev.Name, ev.Args["parent"], root)
		}
	}
}
