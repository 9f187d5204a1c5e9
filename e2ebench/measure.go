package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"

	"github.com/anacin-go/anacinx/internal/campaign"
)

// size scales a workload: full is the benchmark, tiny is the size the
// benchmark's own tests push through every output check.
type size int

const (
	full size = iota
	tiny
)

// workload is one benchmark input set and the pipeline it drives.
type workload interface {
	// setup builds the workload's inputs from its seed. It may run
	// several times; each call replaces the previous call's inputs.
	setup(ctx context.Context) error
	// pass runs the workload once. A nil tracer is the untraced run;
	// otherwise the pass records spans around every layer call.
	pass(ctx context.Context, t *tracer) (pass, error)
}

var workloadNames = []string{"nd-sweep", "largep-archive", "replay", "class-serve"}

// newWorkload returns the named workload, or nil for an unknown name.
// dir is the workload's private scratch directory.
func newWorkload(name string, sz size, seed int64, dir string) workload {
	switch name {
	case "nd-sweep":
		return &ndSweep{sz: sz, seed: seed}
	case "largep-archive":
		return &largeP{sz: sz, seed: seed, dir: dir}
	case "replay":
		return &replay{sz: sz, seed: seed, dir: dir}
	case "class-serve":
		return &classServe{sz: sz, seed: seed}
	}
	return nil
}

// pass is what one execution of a workload produced.
type pass struct {
	latMS        []float64     // latency of every op, in ms
	failed       int           // ops that failed or whose output check failed
	failures     []string      // why, for the first few failures
	events       int64         // trace events carried through the pipeline
	wall         time.Duration // timed wall time
	csv          []byte        // result bytes every pass must repeat
	archiveBytes int64         // v2 archive bytes written (largep-archive)
	serve        *serveStats   // class-serve only
}

// fail records that op failures failed, with a reason.
func (p *pass) fail(ops int, format string, args ...any) {
	p.failed += ops
	if len(p.failures) < 8 {
		p.failures = append(p.failures, fmt.Sprintf(format, args...))
	}
}

// serveStats are the serve layer's counters for one class-serve pass.
type serveStats struct {
	jobs, jobsFailed    int
	cellRequests        int
	storeMisses, reused int
	missCellMS          []float64
	genLagMSMax         float64
}

// measured aggregates the passes of one measurement window.
type measured struct {
	pass
	passes int
	passS  []float64 // each pass's timed wall time
	rates  []float64 // each pass's events per second
	digest string
}

// measure runs passes until the next one would end past the window, so
// a run measures whole passes for at most the window (and at least one
// pass). Every pass's result CSV must hash to the first pass's digest.
func measure(ctx context.Context, w workload, window time.Duration, t *tracer) (measured, error) {
	var m measured
	start := time.Now()
	for {
		p, err := w.pass(ctx, t)
		if err != nil {
			return m, err
		}
		sum := sha256.Sum256(p.csv)
		digest := hex.EncodeToString(sum[:])
		if m.passes == 0 {
			m.digest = digest
		} else if digest != m.digest {
			p.fail(len(p.latMS)-p.failed, "pass %d result digest %s differs from pass 1's %s", m.passes+1, digest, m.digest)
		}
		m.passes++
		m.latMS = append(m.latMS, p.latMS...)
		m.failed += p.failed
		for _, f := range p.failures {
			if len(m.failures) < 8 {
				m.failures = append(m.failures, f)
			}
		}
		m.events += p.events
		m.wall += p.wall
		m.passS = append(m.passS, p.wall.Seconds())
		m.rates = append(m.rates, float64(p.events)/p.wall.Seconds())
		m.archiveBytes += p.archiveBytes
		if p.serve != nil {
			m.serve = mergeServe(m.serve, p.serve)
		}
		if time.Since(start)+p.wall > window {
			return m, nil
		}
	}
}

func mergeServe(a, b *serveStats) *serveStats {
	if a == nil {
		c := *b
		return &c
	}
	a.jobs += b.jobs
	a.jobsFailed += b.jobsFailed
	a.cellRequests += b.cellRequests
	a.storeMisses += b.storeMisses
	a.reused += b.reused
	a.missCellMS = append(a.missCellMS, b.missCellMS...)
	a.genLagMSMax = max(a.genLagMSMax, b.genLagMSMax)
	return a
}

// eventsPerSecond is the median of the passes' rates, so that a pass
// slowed by a burst of outside load moves it less than a mean would.
func (m *measured) eventsPerSecond() float64 { return median(m.rates) }

// endToEnd is the untraced run's metrics, as BENCHMARK.json names them.
func (m *measured) endToEnd(setupS float64) map[string]metric {
	return map[string]metric{
		"setup_s":      {setupS, "s"},
		"events_per_s": {m.eventsPerSecond(), "events/s"},
		"op_ms_p50":    {percentile(m.latMS, 0.5), "ms"},
	}
}

// perLayer derives the per-layer metrics from the traced run's spans
// and counters. m is the untraced measurement of the same invocation,
// mt the traced one.
func perLayer(t *tracer, spans []span, m, mt measured) map[string]metric {
	self, inner := selfTimes(spans)
	secs := func(name string) float64 { return self[name].Seconds() }
	share := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	events := float64(t.counted(cSimEvents))
	cells, cellBusy := 0, 0.0
	for _, s := range spans {
		if s.Name == "campaign.cell" {
			cells++
			cellBusy += time.Duration(s.End - s.Start).Seconds()
		}
	}
	hits, misses := float64(t.counted(cCacheHits)), float64(t.counted(cCacheMisses))
	sv := mt.serve
	if sv == nil {
		sv = &serveStats{}
	}
	missP50 := 0.0
	if len(sv.missCellMS) > 0 {
		missP50 = percentile(sv.missCellMS, 0.5)
	}
	traced, untraced := mt.eventsPerSecond(), m.eventsPerSecond()
	return map[string]metric{
		"sim.runs":                    {float64(t.counted(cSimRuns)), "count"},
		"sim.events":                  {events, "count"},
		"sim.messages":                {float64(t.counted(cSimMessages)), "count"},
		"sim.busy_s":                  {secs("sim.run"), "s"},
		"sim.ns_per_event":            {share(float64(self["sim.run"].Nanoseconds()), events), "ns"},
		"trace.encode_s":              {(inner["sim.run"] + self["trace.encode"]).Seconds(), "s"},
		"trace.archive_bytes":         {float64(t.counted(cArchiveBytes)), "B"},
		"trace.bytes_per_event":       {share(float64(t.counted(cArchiveBytes)), float64(t.counted(cArchiveEvents))), "B/event"},
		"trace.open_s":                {secs("trace.open"), "s"},
		"trace.orderhash_s":           {secs("trace.orderhash"), "s"},
		"trace.errors":                {float64(t.counted(cTraceErrors)), "count"},
		"graph.builds":                {float64(t.counted(cGraphBuilds)), "count"},
		"graph.nodes":                 {float64(t.counted(cGraphNodes)), "count"},
		"graph.build_s":               {secs("graph.build"), "s"},
		"kernel.features_s":           {secs("kernel.features"), "s"},
		"kernel.stream_features_s":    {secs("kernel.stream_features"), "s"},
		"kernel.cache_hit_share":      {share(hits, hits+misses), "ratio"},
		"kernel.gram_s":               {secs("kernel.gram"), "s"},
		"campaign.cells":              {float64(cells), "count"},
		"campaign.cell_busy_s":        {cellBusy, "s"},
		"campaign.busy_share":         {share(cellBusy, mt.wall.Seconds()*float64(runtime.GOMAXPROCS(0))), "ratio"},
		"serve.jobs":                  {float64(sv.jobs), "count"},
		"serve.cell_requests":         {float64(sv.cellRequests), "count"},
		"serve.store_misses":          {float64(sv.storeMisses), "count"},
		"serve.reuse_share":           {share(float64(sv.reused), float64(sv.cellRequests)), "ratio"},
		"serve.miss_cell_ms_p50":      {missP50, "ms"},
		"serve.jobs_failed":           {float64(sv.jobsFailed), "count"},
		"bench.traced_events_per_s":   {traced, "events/s"},
		"bench.untraced_events_per_s": {untraced, "events/s"},
		"bench.tracing_overhead":      {1 - traced/untraced, "ratio"},
	}
}

// percentile is the nearest-rank-interpolated q-quantile of xs.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// checkCells applies the cell-level output checks — no error,
// runs·(runs−1)/2 distances, one distinct structure at ND=0 — and
// reports whether each cell passed.
func checkCells(p *pass, cells []campaign.Cell) []bool {
	ok := make([]bool, len(cells))
	for i, c := range cells {
		switch {
		case c.Err != nil:
			p.fail(1, "%s: %v", cellName(c), c.Err)
		case c.Summary.N != c.Runs*(c.Runs-1)/2:
			p.fail(1, "%s: %d distances, want %d", cellName(c), c.Summary.N, c.Runs*(c.Runs-1)/2)
		case c.NDPercent == 0 && c.DistinctStructures != 1:
			p.fail(1, "%s: %d distinct structures at ND=0, want 1", cellName(c), c.DistinctStructures)
		default:
			ok[i] = true
		}
	}
	return ok
}

func cellName(c campaign.Cell) string {
	return fmt.Sprintf("%s/p%d/i%d/n%d/nd%g", c.Pattern, c.Procs, c.Iterations, c.Nodes, c.NDPercent)
}

func specOf(c campaign.Cell) campaign.CellSpec {
	return campaign.CellSpec{Pattern: c.Pattern, Procs: c.Procs, Iterations: c.Iterations, Nodes: c.Nodes, NDPercent: c.NDPercent}
}
