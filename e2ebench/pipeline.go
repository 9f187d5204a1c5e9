package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/anacin-go/anacinx/internal/analysis"
	"github.com/anacin-go/anacinx/internal/campaign"
	"github.com/anacin-go/anacinx/internal/graph"
	"github.com/anacin-go/anacinx/internal/kernel"
	"github.com/anacin-go/anacinx/internal/patterns"
	"github.com/anacin-go/anacinx/internal/sim"
	"github.com/anacin-go/anacinx/internal/trace"
)

// The traced pipelines below rebuild campaign.RunCell (materialized)
// and campaign.RunCellStream (streaming, archived) from the same layer
// calls with the configuration core.DefaultExperiment gives them, so
// that a span can be recorded around every call into sim, trace, graph
// and kernel. Their cells must equal the untraced path's byte for byte;
// every traced measurement checks that through the result CSV digest.

// cellProgram is the per-cell part of core's experiment set-up.
type cellProgram struct {
	pat     patterns.Pattern
	params  patterns.Params
	program sim.Program
}

func newCellProgram(spec campaign.CellSpec) (cellProgram, error) {
	pat, err := patterns.ByName(spec.Pattern)
	if err != nil {
		return cellProgram{}, err
	}
	params := patterns.Params{Procs: spec.Procs, Iterations: spec.Iterations, MsgSize: 1, TopologySeed: 1}
	prog, err := pat.Program(params)
	if err != nil {
		return cellProgram{}, err
	}
	return cellProgram{pat: pat, params: params, program: sim.Adapt(prog)}, nil
}

// config is core's per-run simulator configuration for run i.
func (c cellProgram) config(g campaign.Grid, spec campaign.CellSpec, i int) sim.Config {
	return sim.Config{
		Procs:             spec.Procs,
		Nodes:             spec.Nodes,
		NDPercent:         spec.NDPercent,
		Seed:              g.BaseSeed + int64(i),
		CaptureStacks:     g.CaptureStacks,
		EventsPerRankHint: c.pat.EventsPerRankHint(c.params),
	}
}

// forEach runs fn(i) for i in [0, n) on up to workers goroutines and
// stops handing out indices once ctx is done.
func forEach(ctx context.Context, n, workers int, fn func(i int)) {
	workers = max(1, min(workers, n))
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				fn(i)
			}
		}()
	}
dispatch:
	for i := 0; i < n; i++ {
		select {
		case next <- i:
		case <-ctx.Done():
			break dispatch
		}
	}
	close(next)
	wg.Wait()
}

// firstError keeps the first error reported by concurrent workers.
type firstError struct {
	once sync.Once
	err  error
}

func (f *firstError) set(err error) { f.once.Do(func() { f.err = err }) }

func cellShell(g campaign.Grid, spec campaign.CellSpec) campaign.Cell {
	return campaign.Cell{
		Pattern: spec.Pattern, Procs: spec.Procs, Iterations: spec.Iterations,
		Nodes: spec.Nodes, NDPercent: spec.NDPercent, Runs: g.Runs,
	}
}

// tracedCell is campaign.RunCell with a span around every layer call:
// simulate each run into an in-memory trace, build its event graph,
// embed the graphs through a per-cell kernel.Cache, reduce to the
// pairwise-distance summary, and count distinct order hashes. It also
// returns the events the cell simulated. g must be normalized.
func tracedCell(ctx context.Context, t *tracer, parent, group int64, g campaign.Grid, spec campaign.CellSpec, runWorkers int) (campaign.Cell, int64) {
	cs := t.begin("campaign.cell", parent, group)
	defer t.end(cs)
	cell := cellShell(g, spec)
	cp, err := newCellProgram(spec)
	if err != nil {
		cell.Err = err
		return cell, 0
	}
	meta := trace.Meta{Pattern: spec.Pattern, Iterations: spec.Iterations, MsgSize: 1}
	traces := make([]*trace.Trace, g.Runs)
	graphs := make([]*graph.Graph, g.Runs)
	var (
		fail   firstError
		events atomic.Int64
	)
	forEach(ctx, g.Runs, runWorkers, func(i int) {
		s := t.begin("sim.run", cs.ID, group)
		tr, stats, err := sim.RunContext(ctx, cp.config(g, spec, i), meta, cp.program)
		t.end(s)
		if err != nil {
			fail.set(fmt.Errorf("core: run %d: %w", i, err))
			return
		}
		t.count(cSimRuns, 1)
		t.count(cSimEvents, int64(stats.Events))
		events.Add(int64(stats.Events))
		t.count(cSimMessages, int64(stats.Messages))
		s = t.begin("graph.build", cs.ID, group)
		gr, err := graph.FromTrace(tr)
		t.end(s)
		if err != nil {
			fail.set(fmt.Errorf("core: run %d: %w", i, err))
			return
		}
		t.count(cGraphBuilds, 1)
		t.count(cGraphNodes, int64(gr.NumNodes()))
		traces[i], graphs[i] = tr, gr
	})
	if fail.err == nil && ctx.Err() != nil {
		fail.set(ctx.Err())
	}
	if fail.err != nil {
		cell.Err = fail.err
		return cell, events.Load()
	}

	cache := kernel.NewCache()
	feats := make([]kernel.FeatureVector, len(graphs))
	forEach(ctx, len(graphs), runtime.GOMAXPROCS(0), func(i int) {
		s := t.begin("kernel.features", cs.ID, group)
		feats[i] = cache.Features(g.Kernel, graphs[i])
		t.end(s)
	})
	t.count(cCacheHits, int64(cache.Hits()))
	t.count(cCacheMisses, int64(cache.Misses()))
	cell.Summary = gram(t, cs.ID, group, g.Kernel.Name(), feats)

	distinct := make(map[uint64]bool, len(traces))
	for _, tr := range traces {
		s := t.begin("trace.orderhash", cs.ID, group)
		distinct[tr.OrderHash()] = true
		t.end(s)
	}
	cell.DistinctStructures = len(distinct)
	return cell, events.Load()
}

// gram reduces embeddings to the pairwise-distance summary.
func gram(t *tracer, parent, group int64, kernelName string, feats []kernel.FeatureVector) analysis.Summary {
	s := t.begin("kernel.gram", parent, group)
	defer t.end(s)
	return analysis.Summarize(kernel.MatrixFromFeatures(kernelName, feats).PairwiseDistances())
}

// timedSink wraps the simulator's trace sink and accumulates the time
// spent in it. The simulator calls Append from one rank at a time, so
// the plain field needs no lock.
type timedSink struct {
	sink trace.EventSink
	ns   time.Duration
}

func (s *timedSink) Append(e trace.Event) {
	t0 := time.Now()
	s.sink.Append(e)
	s.ns += time.Since(t0)
}

// tracedCellStream is campaign.RunCellStream with a span around every
// layer call: each run simulates straight into a v2 archive under
// <archiveDir>/<cell fingerprint>/run-<i>.anctr, which is then opened,
// stream-embedded and order-hashed. g must be normalized.
func tracedCellStream(ctx context.Context, t *tracer, parent, group int64, g campaign.Grid, spec campaign.CellSpec, runWorkers int, archiveDir string) campaign.Cell {
	cs := t.begin("campaign.cell", parent, group)
	defer t.end(cs)
	cell := cellShell(g, spec)
	cp, err := newCellProgram(spec)
	if err != nil {
		cell.Err = err
		return cell
	}
	dir := filepath.Join(archiveDir, g.CellFingerprint(spec).String())
	if err := os.MkdirAll(dir, 0o755); err != nil {
		cell.Err = err
		return cell
	}
	feats := make([]kernel.FeatureVector, g.Runs)
	hashes := make([]uint64, g.Runs)
	var fail firstError
	forEach(ctx, g.Runs, runWorkers, func(i int) {
		path := filepath.Join(dir, fmt.Sprintf("run-%d.anctr", i))
		if err := tracedStreamRun(ctx, t, cs.ID, group, g, spec, cp, i, path); err != nil {
			fail.set(fmt.Errorf("core: run %d: %w", i, err))
			return
		}
		rp, err := replayFile(t, cs.ID, group, g.Kernel, path)
		if err != nil {
			fail.set(fmt.Errorf("core: run %d: %w", i, err))
			return
		}
		feats[i], hashes[i] = rp.features, rp.hash
	})
	if fail.err == nil && ctx.Err() != nil {
		fail.set(ctx.Err())
	}
	if fail.err != nil {
		cell.Err = fail.err
		return cell
	}
	cell.Summary = gram(t, cs.ID, group, g.Kernel.Name(), feats)
	cell.DistinctStructures = countDistinct(hashes)
	return cell
}

// tracedStreamRun simulates run i into a v2 archive at path, as
// core's streaming executor does.
func tracedStreamRun(ctx context.Context, t *tracer, parent, group int64, g campaign.Grid, spec campaign.CellSpec, cp cellProgram, i int, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	meta := trace.Meta{
		Pattern: spec.Pattern, Iterations: spec.Iterations, MsgSize: 1,
		Procs: spec.Procs, Nodes: spec.Nodes, NDPercent: spec.NDPercent,
		Seed: g.BaseSeed + int64(i),
	}
	cfg := cp.config(g, spec, i)
	sw := trace.NewStreamWriterOptions(f, meta, cfg.Codec)
	sink := &timedSink{sink: sw}
	cfg.Sink = sink
	s := t.begin("sim.run", parent, group)
	_, stats, err := sim.RunContext(ctx, cfg, meta, cp.program)
	t.endInner(s, sink.ns)
	if err != nil {
		f.Close()
		return err
	}
	t.count(cSimRuns, 1)
	t.count(cSimEvents, int64(stats.Events))
	t.count(cSimMessages, int64(stats.Messages))
	s = t.begin("trace.encode", parent, group)
	err = sw.Close()
	t.end(s)
	if err != nil {
		f.Close()
		t.count(cTraceErrors, 1)
		return fmt.Errorf("encode %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return err
	}
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	t.count(cArchiveBytes, fi.Size())
	t.count(cArchiveEvents, int64(stats.Events))
	return nil
}

// replayed is what the read side derives from one archived trace.
type replayed struct {
	features kernel.FeatureVector
	hash     uint64
	events   int
}

// replayFile opens one archive, stream-embeds it and computes its
// order hash: the loop body of `anacin replay`.
func replayFile(t *tracer, parent, group int64, k kernel.Kernel, path string) (replayed, error) {
	s := t.begin("trace.open", parent, group)
	r, err := trace.OpenReader(path)
	t.end(s)
	if err != nil {
		t.count(cTraceErrors, 1)
		return replayed{}, err
	}
	defer r.Close()
	s = t.begin("kernel.stream_features", parent, group)
	fv, err := kernel.FeaturesFromReader(k, r)
	t.end(s)
	if err != nil {
		t.count(cTraceErrors, 1)
		return replayed{}, err
	}
	s = t.begin("trace.orderhash", parent, group)
	oh, err := r.OrderHash()
	t.end(s)
	if err != nil {
		t.count(cTraceErrors, 1)
		return replayed{}, err
	}
	return replayed{features: fv, hash: oh, events: r.NumEvents()}, nil
}

func countDistinct(hashes []uint64) int {
	set := make(map[uint64]bool, len(hashes))
	for _, h := range hashes {
		set[h] = true
	}
	return len(set)
}
