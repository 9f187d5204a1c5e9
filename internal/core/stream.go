package core

import (
	"context"
	"fmt"
	"os"
	"path/filepath"

	"github.com/anacin-go/anacinx/internal/analysis"
	"github.com/anacin-go/anacinx/internal/kernel"
	"github.com/anacin-go/anacinx/internal/sim"
)

// The cell measurement: each run worker simulates its run (in memory,
// or into a v2 archive it reads back), builds the event graph, embeds
// it, records the order hash, and drops the trace and the graph. A
// cell therefore holds only embeddings and hashes, at most one run's
// graph per run worker at a time. The embeddings, order hashes, and
// every distance derived from them are byte-identical to the
// ExecuteContext run set's (pinned by tests).

// StreamRunSet holds the artifacts of ExecuteStreamContext: embeddings
// instead of graphs, order hashes instead of traces.
type StreamRunSet struct {
	Experiment Experiment
	// KernelName names the kernel that produced Features.
	KernelName string
	// Features[i] is run i's embedding.
	Features []kernel.FeatureVector
	// OrderHashes[i] is run i's trace order hash (the DistinctStructures
	// input).
	OrderHashes []uint64
	// Stats[i] summarizes run i's simulation.
	Stats []*sim.Stats
	// TracePaths[i] is run i's archived v2 trace file; nil when the
	// runs were not archived.
	TracePaths []string
}

// ExecuteStreamContext runs the experiment's sample and embeds every
// run under k (nil = WL depth 2) in the worker that ran it. When
// archiveDir is non-empty, each run's v2 trace is kept there as
// run-<i>.anctr (the directory is created if needed) and recorded in
// TracePaths; otherwise runs are traced in memory. Embeddings go
// through one per-call kernel.Cache, so structurally identical runs
// (every run of an ND=0 cell) are embedded once when they run one after
// another. Cancellation and failure semantics match ExecuteContext.
func (e Experiment) ExecuteStreamContext(ctx context.Context, k kernel.Kernel, archiveDir string) (*StreamRunSet, error) {
	if k == nil {
		k = kernel.NewWL(2)
	}
	pat, program, err := e.program()
	if err != nil {
		return nil, err
	}
	srs := &StreamRunSet{
		Experiment:  e,
		KernelName:  k.Name(),
		Features:    make([]kernel.FeatureVector, e.Runs),
		OrderHashes: make([]uint64, e.Runs),
		Stats:       make([]*sim.Stats, e.Runs),
	}
	if archiveDir != "" {
		if err := os.MkdirAll(archiveDir, 0o755); err != nil {
			return nil, fmt.Errorf("core: archive dir: %w", err)
		}
		srs.TracePaths = make([]string, e.Runs)
	}
	cache := kernel.NewCache()
	err = forEachRun(ctx, e.Runs, e.Workers, func(ctx context.Context, i int) error {
		path := ""
		if archiveDir != "" {
			path = filepath.Join(archiveDir, fmt.Sprintf("run-%d.anctr", i))
		}
		r, err := e.simulateGraph(ctx, i, pat, program, path)
		if err != nil {
			return err
		}
		srs.Features[i] = cache.Features(k, r.graph)
		srs.OrderHashes[i] = r.orderHash()
		srs.Stats[i] = r.stats
		if path != "" {
			srs.TracePaths[i] = path
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return srs, nil
}

// Distances returns the pairwise kernel-distance sample of the
// embeddings — the same sample RunSet.Distances draws from graphs,
// byte-identical for equal embeddings.
func (srs *StreamRunSet) Distances() []float64 {
	return kernel.MatrixFromFeatures(srs.KernelName, srs.Features).PairwiseDistances()
}

// DistanceSummary summarizes the pairwise distances.
func (srs *StreamRunSet) DistanceSummary() analysis.Summary {
	return analysis.Summarize(srs.Distances())
}

// DistinctStructures reports how many distinct communication structures
// the sample contains, matching RunSet.DistinctStructures.
func (srs *StreamRunSet) DistinctStructures() int {
	set := make(map[uint64]bool, len(srs.OrderHashes))
	for _, oh := range srs.OrderHashes {
		set[oh] = true
	}
	return len(set)
}
