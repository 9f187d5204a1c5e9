package kernel

import (
	"reflect"
	"testing"

	"github.com/anacin-go/anacinx/internal/graph"
)

// TestNewMatrixWorkerCountInvariant pins the parallel Gram-matrix build
// to the sequential result: every worker count must produce the exact
// same matrix (float-for-float — the parallel path reorders scheduling,
// never arithmetic).
func TestNewMatrixWorkerCountInvariant(t *testing.T) {
	graphs := make([]*graph.Graph, 9)
	for i := range graphs {
		graphs[i] = meshGraph(t, 6, 3, 100, int64(i+1))
	}
	for _, k := range allKernels {
		want := newMatrix(k, graphs, 1, nil)
		for _, workers := range []int{2, 3, 8, 64} {
			got := newMatrix(k, graphs, workers, nil)
			if got.KernelName != want.KernelName || got.Len() != want.Len() {
				t.Fatalf("%s workers=%d: shape mismatch", k.Name(), workers)
			}
			for i := 0; i < want.Len(); i++ {
				for j := 0; j < want.Len(); j++ {
					if got.K[i][j] != want.K[i][j] {
						t.Errorf("%s workers=%d: K[%d][%d] = %v, want %v",
							k.Name(), workers, i, j, got.K[i][j], want.K[i][j])
					}
				}
			}
			if err := got.CheckPSD(1e-9); err != nil {
				t.Errorf("%s workers=%d: %v", k.Name(), workers, err)
			}
		}
	}
}

// TestNewMatrixSmallInputs exercises the degenerate sizes the worker
// pool must not trip over.
func TestNewMatrixSmallInputs(t *testing.T) {
	k := NewWL(2)
	if m := NewMatrix(k, nil); m.Len() != 0 {
		t.Errorf("empty input gave %d rows", m.Len())
	}
	one := []*graph.Graph{meshGraph(t, 4, 2, 0, 1)}
	m := NewMatrix(k, one)
	if m.Len() != 1 || m.K[0][0] <= 0 {
		t.Errorf("single-graph matrix: %+v", m)
	}
}

func TestMatrixFromFeaturesMatchesNewMatrix(t *testing.T) {
	k := NewWL(2)
	var graphs []*graph.Graph
	var feats []FeatureVector
	for seed := int64(1); seed <= 4; seed++ {
		g := meshGraph(t, 6, 3, 50, seed)
		graphs = append(graphs, g)
		feats = append(feats, k.Features(g))
	}
	for n := 0; n <= 4; n++ {
		want := NewMatrix(k, graphs[:n])
		got := MatrixFromFeatures(k.Name(), feats[:n])
		if !reflect.DeepEqual(want.K, got.K) {
			t.Errorf("n=%d: feature-built matrix differs from graph-built", n)
		}
		if got.KernelName != want.KernelName {
			t.Errorf("n=%d: kernel name %q vs %q", n, got.KernelName, want.KernelName)
		}
	}
}
