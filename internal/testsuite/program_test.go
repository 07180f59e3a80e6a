package testsuite

import (
	"bytes"
	"sync"
	"testing"

	"cusango/internal/campaign"
	"cusango/internal/cuda"
	"cusango/internal/kaccess"
)

// TestCompiledAnalysisMatchesFresh: the program every job shares
// carries the same kernel analysis as a fresh analysis of a newly built
// module.
func TestCompiledAnalysisMatchesFresh(t *testing.T) {
	prog, err := cuda.Compile(Module())
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := kaccess.Analyze(buildModule())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := prog.Analysis().String(), fresh.String(); got != want {
		t.Fatalf("shared analysis:\n%s\nfresh analysis:\n%s", got, want)
	}
	if again, _ := cuda.Compile(Module()); again != prog {
		t.Fatal("Module() compiled twice")
	}
}

// TestSharedProgramMatchesFreshModules: suite and chaos jobs running
// concurrently on the one shared program give the same records as the
// same jobs run one at a time, each on a freshly built and compiled
// module. Run it under -race: the shared program must be read-only.
func TestSharedProgramMatchesFreshModules(t *testing.T) {
	jobs := append(SuiteJobs(Cases(), bothEngines),
		ChaosJobs(Cases(), []uint64{1, 2}, 0.05, bothEngines)...)

	shared := module
	t.Cleanup(func() { module = shared })
	module = buildModule
	var fresh bytes.Buffer
	rep := campaign.Run(jobs, ExecuteJob, campaign.Options{Workers: 1})
	if len(rep.Records) != len(jobs) {
		t.Fatalf("%d records for %d jobs", len(rep.Records), len(jobs))
	}
	if err := rep.WriteJSONL(&fresh, false); err != nil {
		t.Fatal(err)
	}

	module = sync.OnceValue(buildModule)
	var got bytes.Buffer
	rep = campaign.Run(jobs, ExecuteJob, campaign.Options{Workers: 4})
	if err := rep.WriteJSONL(&got, false); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), fresh.Bytes()) {
		t.Fatal("records on the shared program differ from records on fresh modules")
	}
}
