package kernel

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"github.com/anacin-go/anacinx/internal/graph"
)

// Matrix is a precomputed kernel (Gram) matrix over a set of graphs.
// Features are computed once per graph, so building the matrix costs
// n embeddings plus n(n+1)/2 dot products.
type Matrix struct {
	// KernelName records which kernel produced the matrix.
	KernelName string
	// K holds the kernel values, K[i][j] = k(G_i, G_j).
	K [][]float64
}

// NewMatrix computes the Gram matrix of the given graphs under k. The
// n embeddings and the n(n+1)/2 dot products are independent, so both
// stages fan out across the machine's cores; every value is written to
// a fixed index, so the matrix is identical to the sequential result.
func NewMatrix(k Kernel, graphs []*graph.Graph) *Matrix {
	return newMatrix(k, graphs, defaultWorkers(), nil)
}

// NewMatrixWorkers is NewMatrix with an explicit worker count. Tests
// sweep it to pin down scheduling-independence, and the perf harness
// uses it to chart Gram-matrix scaling at fixed parallelism
// (`anacin bench`'s gram/* scenarios).
func NewMatrixWorkers(k Kernel, graphs []*graph.Graph, workers int) *Matrix {
	if workers < 1 {
		workers = 1
	}
	return newMatrix(k, graphs, workers, nil)
}

// defaultWorkers is the worker count the parallel stages use when the
// caller does not pin one.
func defaultWorkers() int { return runtime.GOMAXPROCS(0) }

// newMatrix is the shared implementation: explicit worker count,
// optional embedding cache (nil computes every embedding).
func newMatrix(k Kernel, graphs []*graph.Graph, workers int, cache *Cache) *Matrix {
	n := len(graphs)
	// Degenerate sizes, handled explicitly rather than by trusting the
	// worker pool's edge behavior: no graphs means a 0x0 matrix (still
	// carrying the kernel name), and one graph means a single
	// self-similarity value with no pairwise stage at all.
	switch n {
	case 0:
		return &Matrix{KernelName: k.Name(), K: [][]float64{}}
	case 1:
		f := cache.Features(k, graphs[0])
		return &Matrix{KernelName: k.Name(), K: [][]float64{{f.Dot(f)}}}
	}
	if workers > n {
		workers = n
	}
	m := &Matrix{KernelName: k.Name(), K: make([][]float64, n)}
	for i := range m.K {
		m.K[i] = make([]float64, n)
	}
	feats := make([]FeatureVector, n)
	if workers < 2 {
		for i, g := range graphs {
			feats[i] = cache.Features(k, g)
		}
		fillRows(feats, m.K, 0, n)
		return m
	}

	// Stage 1: embed each graph. Indices are claimed with an atomic
	// cursor so a slow embedding does not stall its neighbours.
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(cursor.Add(1)) - 1
				if i >= n {
					return
				}
				feats[i] = cache.Features(k, graphs[i])
			}
		}()
	}
	wg.Wait()

	// Stage 2: the upper-triangle dot products, one row at a time. Rows
	// shrink linearly (row i has n-i products), so work-stealing rows
	// off a shared cursor balances better than pre-chunking.
	cursor.Store(0)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(cursor.Add(1)) - 1
				if i >= n {
					return
				}
				fillRows(feats, m.K, i, i+1)
			}
		}()
	}
	wg.Wait()
	return m
}

// MatrixFromFeatures builds a Gram matrix from already-computed
// embeddings — the cell pipeline embeds each run in its run worker and
// drops the run's graph, so no graphs exist by matrix time. The degenerate sizes
// and the dot-product order match newMatrix exactly, making the matrix
// (and every distance derived from it) byte-identical to the
// graph-based construction over the same embeddings.
func MatrixFromFeatures(kernelName string, feats []FeatureVector) *Matrix {
	n := len(feats)
	switch n {
	case 0:
		return &Matrix{KernelName: kernelName, K: [][]float64{}}
	case 1:
		f := feats[0]
		return &Matrix{KernelName: kernelName, K: [][]float64{{f.Dot(f)}}}
	}
	m := &Matrix{KernelName: kernelName, K: make([][]float64, n)}
	for i := range m.K {
		m.K[i] = make([]float64, n)
	}
	fillRows(feats, m.K, 0, n)
	return m
}

// fillRows computes rows [lo, hi) of the upper triangle (and mirrors
// them) from the embedded features.
func fillRows(feats []FeatureVector, K [][]float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		for j := i; j < len(feats); j++ {
			v := feats[i].Dot(feats[j])
			K[i][j] = v
			K[j][i] = v
		}
	}
}

// Len returns the number of graphs the matrix covers.
func (m *Matrix) Len() int { return len(m.K) }

// Value returns k(G_i, G_j).
func (m *Matrix) Value(i, j int) float64 { return m.K[i][j] }

// Distance returns the kernel distance between graphs i and j.
func (m *Matrix) Distance(i, j int) float64 {
	return DistanceFromValues(m.K[i][i], m.K[j][j], m.K[i][j])
}

// PairwiseDistances returns the n(n-1)/2 distances of the strict upper
// triangle, ordered (0,1), (0,2), ..., (n-2,n-1). This is the sample of
// kernel distances the paper's violin plots draw: every unordered pair
// of runs contributes one observation of "how different can two
// executions of this configuration be".
func (m *Matrix) PairwiseDistances() []float64 {
	n := m.Len()
	out := make([]float64, 0, n*(n-1)/2)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			out = append(out, m.Distance(i, j))
		}
	}
	return out
}

// DistancesToFirst returns the distances of graphs 1..n-1 to graph 0,
// an alternative sample construction that designates run 0 as the
// reference execution.
func (m *Matrix) DistancesToFirst() []float64 {
	n := m.Len()
	out := make([]float64, 0, n-1)
	for j := 1; j < n; j++ {
		out = append(out, m.Distance(0, j))
	}
	return out
}

// CheckPSD verifies the matrix is (numerically) positive semidefinite
// by confirming every 2x2 principal minor is non-negative within tol —
// a cheap necessary condition used by tests; explicit-feature-map
// kernels are PSD by construction, so a violation indicates a bug.
func (m *Matrix) CheckPSD(tol float64) error {
	n := m.Len()
	for i := 0; i < n; i++ {
		if m.K[i][i] < -tol {
			return fmt.Errorf("kernel: negative self-similarity K[%d][%d] = %v", i, i, m.K[i][i])
		}
		for j := i + 1; j < n; j++ {
			if m.K[i][j] != m.K[j][i] {
				return fmt.Errorf("kernel: asymmetric at (%d,%d)", i, j)
			}
			minor := m.K[i][i]*m.K[j][j] - m.K[i][j]*m.K[i][j]
			if minor < -tol {
				return fmt.Errorf("kernel: 2x2 minor (%d,%d) = %v < 0", i, j, minor)
			}
		}
	}
	return nil
}

// PairwiseDistances is the package-level convenience: embed, build the
// Gram matrix, and return the upper-triangle distance sample.
func PairwiseDistances(k Kernel, graphs []*graph.Graph) []float64 {
	return NewMatrix(k, graphs).PairwiseDistances()
}
