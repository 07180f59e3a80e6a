package halo2d

import (
	"testing"

	"cusango/internal/cuda"
	"cusango/internal/kaccess"
	"cusango/internal/kir"
)

// TestCompiledAnalysisMatchesFresh: the compiled program of each halo2d
// module carries the same kernel analysis as a fresh analysis of a newly
// built one. AppModule extends a fresh Module, so compiling one never
// seals the other.
func TestCompiledAnalysisMatchesFresh(t *testing.T) {
	for name, build := range map[string]func() *kir.Module{"Module": Module, "AppModule": AppModule} {
		prog, err := cuda.Compile(build())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		fresh, err := kaccess.Analyze(build())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got, want := prog.Analysis().String(), fresh.String(); got != want {
			t.Fatalf("%s: compiled analysis:\n%s\nfresh analysis:\n%s", name, got, want)
		}
	}
}
