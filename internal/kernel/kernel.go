// Package kernel implements graph kernels over event graphs and the
// kernel distance ANACIN-X uses as its proxy metric for non-determinism.
//
// A graph kernel is an inner product of graph embeddings in a
// Reproducing Kernel Hilbert Space (Vishwanathan et al., JMLR 2010).
// Every kernel here is of the explicit-feature-map family: a graph is
// embedded as a sparse histogram of structural features, and
// k(G1, G2) is the dot product of the histograms. The kernel distance
//
//	d(G1, G2) = sqrt(k(G1,G1) + k(G2,G2) - 2 k(G1,G2))
//
// is then the RKHS (Euclidean feature-space) distance. Because two runs
// of a deterministic program produce identical event graphs, d = 0 means
// "no observed non-determinism", and larger d means the communication
// structures diverged more — the quantity plotted in the paper's
// Figures 5, 6, and 7.
//
// The default kernel is the Weisfeiler-Lehman subtree kernel with depth
// 2, the configuration the ANACIN-X papers use; vertex- and
// edge-histogram kernels are provided as cheap baselines and for
// ablation.
//
// # Feature representation
//
// Embeddings are FeatureVector values: parallel keys/vals slices sorted
// by feature key (a CSR-style sorted sparse vector), built by sorting
// and run-length encoding a pooled buffer of feature occurrences. Dot
// is a two-pointer merge join over the sorted keys — no hashing, no
// random memory access, and a float summation order that is a pure
// function of the data. The map-backed Features type it replaced
// summed in Go's randomized map iteration order, so the innermost
// arithmetic of a non-determinism *measurement* tool was itself
// non-deterministic; the sorted layout makes every dot product (and
// therefore every kernel distance) bit-identical across runs,
// processes, and construction orders. Features remains as a
// conversion/compat type — see FromMap and FeatureVector.ToMap.
//
// A content-addressed embedding Cache (keyed by kernel name and a
// structural graph fingerprint) lets a pipeline that feeds the same
// run set into the violin sample, the slice profile, and the
// root-source ranking embed each graph exactly once — see Cache.
package kernel

import (
	"math"

	"github.com/anacin-go/anacinx/internal/graph"
	"github.com/anacin-go/anacinx/internal/trace"
)

// Features is the map-backed compat representation of a sparse feature
// histogram: hashed structural feature → multiplicity. Feature identity
// is stable across processes and platforms (FNV-based hashing of label
// content only). Kernels no longer produce it — they build sorted
// FeatureVector values directly — but it remains the convenient form
// for tests and tools that assemble or inspect histograms by key;
// convert with FromMap / FeatureVector.ToMap.
type Features map[uint64]float64

// Dot returns the inner product of two feature histograms. Note the
// summation follows map iteration order, which Go randomizes — kept
// only as the differential-testing oracle for FeatureVector.Dot (the
// fuzz test pins the two implementations against each other).
func (f Features) Dot(g Features) float64 {
	// Iterate the smaller map.
	if len(g) < len(f) {
		f, g = g, f
	}
	sum := 0.0
	for k, v := range f {
		if w, ok := g[k]; ok {
			//anacin:allow floatfold map-order summation is this oracle's point: fuzz inputs are small integers whose partial sums are exact, so order cannot change the result
			sum += v * w
		}
	}
	return sum
}

// L2 returns the Euclidean norm of the histogram.
func (f Features) L2() float64 { return math.Sqrt(f.Dot(f)) }

// Kernel embeds event graphs as sorted sparse feature vectors.
type Kernel interface {
	// Name identifies the kernel in reports, e.g. "wlst-h2".
	Name() string
	// Features computes the graph's embedding.
	Features(g *graph.Graph) FeatureVector
}

// FeaturesFromReader embeds the archived trace behind r under k: it
// builds the trace's event graph through the reader (graph.FromReader)
// and embeds that, so the result equals k.Features of the graph of the
// materialized trace.
func FeaturesFromReader(k Kernel, r *trace.Reader) (FeatureVector, error) {
	g, err := graph.FromReader(r)
	if err != nil {
		return FeatureVector{}, err
	}
	return k.Features(g), nil
}

// Value computes k(g1, g2) directly.
func Value(k Kernel, g1, g2 *graph.Graph) float64 {
	return k.Features(g1).Dot(k.Features(g2))
}

// DistanceFromValues converts kernel values to the RKHS distance,
// clamping tiny negative arguments that arise from floating-point
// cancellation.
func DistanceFromValues(k11, k22, k12 float64) float64 {
	d2 := k11 + k22 - 2*k12
	if d2 < 0 {
		d2 = 0
	}
	return math.Sqrt(d2)
}

// Distance computes the (un-normalized) kernel distance between two
// graphs, the paper's measured amount of non-determinism.
func Distance(k Kernel, g1, g2 *graph.Graph) float64 {
	f1, f2 := k.Features(g1), k.Features(g2)
	return DistanceFromValues(f1.Dot(f1), f2.Dot(f2), f1.Dot(f2))
}

// NormalizedDistance computes the distance after normalizing each
// embedding to unit norm: sqrt(2 - 2*k12/sqrt(k11*k22)). It is bounded
// in [0, sqrt(2)] and insensitive to graph size. Graphs with empty
// embeddings are treated as identical to each other and maximally far
// from non-empty ones.
func NormalizedDistance(k Kernel, g1, g2 *graph.Graph) float64 {
	f1, f2 := k.Features(g1), k.Features(g2)
	n1, n2 := f1.L2(), f2.L2()
	switch {
	case n1 == 0 && n2 == 0:
		return 0
	case n1 == 0 || n2 == 0:
		return math.Sqrt2
	}
	cos := f1.Dot(f2) / (n1 * n2)
	if cos > 1 {
		cos = 1
	}
	return math.Sqrt(2 - 2*cos)
}

// fnv-1a constants, applied to 8-byte words.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// hashWord folds one 64-bit word into an FNV-1a state byte by byte.
func hashWord(h, w uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= w & 0xff
		h *= fnvPrime
		w >>= 8
	}
	return h
}

// hashString hashes a label string with FNV-1a.
func hashString(s string) uint64 {
	h := uint64(fnvOffset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime
	}
	return h
}
