package jacobi

import (
	"testing"

	"cusango/internal/cuda"
	"cusango/internal/kaccess"
)

// TestCompiledAnalysisMatchesFresh: the program every run shares
// carries the same kernel analysis as a fresh analysis of a newly built
// module, and Module() is compiled once.
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
