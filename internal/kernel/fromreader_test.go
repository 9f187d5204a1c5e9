package kernel

import (
	"bytes"
	"reflect"
	"testing"

	"github.com/anacin-go/anacinx/internal/graph"
	"github.com/anacin-go/anacinx/internal/sim"
	"github.com/anacin-go/anacinx/internal/trace"
)

// readerFor encodes tr as a v2 binary trace in memory and opens a
// Reader over it.
func readerFor(t testing.TB, tr *trace.Trace) *trace.Reader {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.WriteBinaryV2(&buf); err != nil {
		t.Fatal(err)
	}
	r, err := trace.NewReader(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// fanInTrace is an eager fan-in: every nonzero rank's sends complete
// only when rank 0 drains them.
func fanInTrace(t testing.TB, procs, iters int, nd float64) *trace.Trace {
	t.Helper()
	cfg := sim.DefaultConfig(procs, 42)
	cfg.NDPercent = nd
	tr, _, err := sim.Run(cfg, trace.Meta{Pattern: "race"}, func(r *sim.Rank) {
		if r.Rank() == 0 {
			for i := 0; i < iters*(r.Size()-1); i++ {
				r.Recv(sim.AnySource, sim.AnyTag)
			}
			return
		}
		for i := 0; i < iters; i++ {
			r.SendSize(0, i, 64)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// stencilTrace interleaves sends and receives every iteration, so
// messages are consumed about as fast as they are produced.
func stencilTrace(t testing.TB, procs, rounds int, nd float64) *trace.Trace {
	t.Helper()
	cfg := sim.DefaultConfig(procs, 11)
	cfg.NDPercent = nd
	tr, _, err := sim.Run(cfg, trace.Meta{Pattern: "stencil"}, func(r *sim.Rank) {
		p := r.Size()
		left, right := (r.Rank()-1+p)%p, (r.Rank()+1)%p
		for i := 0; i < rounds; i++ {
			r.SendSize(left, i, 1)
			r.SendSize(right, i, 1)
			r.Recv(sim.AnySource, sim.AnyTag)
			r.Recv(sim.AnySource, sim.AnyTag)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// checkFeaturesFromReader pins the archive read side to the in-memory
// one: embedding a v2 archive through its Reader gives exactly
// k.Features of the materialized trace's event graph, for each of
// kernels over a mesh, a stencil, a fan-in and an empty trace.
func checkFeaturesFromReader(t *testing.T, kernels []Kernel) {
	t.Helper()
	traces := map[string]*trace.Trace{
		"mesh-8rank":    meshTrace(t, 8, 6, 25, 3),
		"mesh-16rank":   meshTrace(t, 16, 4, 50, 9),
		"stencil-8rank": stencilTrace(t, 8, 10, 25),
		"race-12rank":   fanInTrace(t, 12, 5, 25),
		"empty":         trace.New(trace.Meta{Procs: 3}),
	}
	for name, tr := range traces {
		g, err := graph.FromTrace(tr)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, k := range kernels {
			want := k.Features(g)
			got, err := FeaturesFromReader(k, readerFor(t, tr))
			if err != nil {
				t.Fatalf("%s %s: %v", name, k.Name(), err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Errorf("%s %s: embedding through the reader differs from Features", name, k.Name())
			}
		}
	}
}

// TestStreamingWLMatchesFeatures covers WL read straight from an
// archive, at several depths, undirected and with a non-default seed.
func TestStreamingWLMatchesFeatures(t *testing.T) {
	checkFeaturesFromReader(t, []Kernel{
		NewWL(0), NewWL(1), NewWL(2), NewWL(3),
		WL{H: 2, Directed: false},
		WL{H: 2, Directed: true, Seed: 0xfeedface},
	})
}

// TestFeaturesFromReaderFallback covers the kernels other than WL read
// straight from an archive.
func TestFeaturesFromReaderFallback(t *testing.T) {
	checkFeaturesFromReader(t, []Kernel{VertexHistogram{}, EdgeHistogram{}, ShortestPath{}})
}
