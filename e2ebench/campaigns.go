package main

import (
	"context"
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"github.com/anacin-go/anacinx/internal/campaign"
	"github.com/anacin-go/anacinx/internal/sim"
	"github.com/anacin-go/anacinx/internal/trace"
)

// baseSeed derives a grid's BaseSeed from the workload seed, so the
// program only ever sees the generated value.
func baseSeed(seed int64, salt int64) int64 {
	return rand.New(rand.NewSource(seed*7919 + salt)).Int63n(1 << 40)
}

// shape is the part of a cell that fixes its program, and so the number
// of events each of its runs records.
type shape struct {
	pattern             string
	procs, iters, nodes int
}

func shapeOf(s campaign.CellSpec) shape { return shape{s.Pattern, s.Procs, s.Iterations, s.Nodes} }

// eventsPerRun simulates one run of every cell shape of g at ND=0. A
// run's event count is fixed by its program, not by the seed or the ND
// level; the traced run checks that against every run it simulates.
func eventsPerRun(ctx context.Context, g campaign.Grid, into map[shape]int64) error {
	for _, spec := range g.CellSpecs() {
		sh := shapeOf(spec)
		if _, ok := into[sh]; ok {
			continue
		}
		cp, err := newCellProgram(spec)
		if err != nil {
			return err
		}
		cfg := cp.config(g, spec, 0)
		cfg.NDPercent = 0
		meta := trace.Meta{Pattern: spec.Pattern, Iterations: spec.Iterations, MsgSize: 1}
		_, stats, err := sim.RunContext(ctx, cfg, meta, cp.program)
		if err != nil {
			return fmt.Errorf("event count of %v: %w", sh, err)
		}
		into[sh] = int64(stats.Events)
	}
	return nil
}

// runnerBudget is campaign.Runner's default two-level worker budget for
// a grid of n cells.
func runnerBudget(n int) (workers, runWorkers int) {
	workers = max(1, min(runtime.GOMAXPROCS(0), n))
	return workers, max(1, runtime.GOMAXPROCS(0)/workers)
}

// runGrid runs every cell of g: untraced through campaign.Runner, traced
// through the span-recording replica of its cell pipeline on the same
// worker budget. It returns the sorted cells, each cell's wall time in
// ms (in completion order), and the events each traced cell simulated
// (nil when untraced).
func runGrid(ctx context.Context, t *tracer, g campaign.Grid, archiveDir string) (*campaign.Result, []float64, map[campaign.CellSpec]int64, error) {
	var latMS []float64
	if t == nil {
		r := campaign.Runner{
			ArchiveDir: archiveDir,
			Progress:   func(p campaign.Progress) { latMS = append(latMS, ms(p.CellWall)) },
		}
		res, err := r.Run(ctx, g)
		return res, latMS, nil, err
	}
	specs := g.CellSpecs()
	workers, runWorkers := runnerBudget(len(specs))
	res := &campaign.Result{KernelName: g.Kernel.Name(), Cells: make([]campaign.Cell, len(specs))}
	simulated := make(map[campaign.CellSpec]int64, len(specs))
	var mu sync.Mutex
	forEach(ctx, len(specs), workers, func(i int) {
		group := t.group()
		start := time.Now()
		var ev int64
		if archiveDir != "" {
			res.Cells[i] = tracedCellStream(ctx, t, 0, group, g, specs[i], runWorkers, archiveDir)
		} else {
			res.Cells[i], ev = tracedCell(ctx, t, 0, group, g, specs[i], runWorkers)
		}
		mu.Lock()
		latMS = append(latMS, ms(time.Since(start)))
		simulated[specs[i]] = ev
		mu.Unlock()
	})
	if err := ctx.Err(); err != nil {
		return nil, nil, nil, err
	}
	campaign.SortCells(res.Cells)
	return res, latMS, simulated, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ndSweep is the researcher's campaign of Figs. 5–7: the three
// mini-applications across process counts, iterations, node counts and
// ND levels, 20 runs per cell, WL-2, materialized pipeline, stacks off.
type ndSweep struct {
	sz     size
	seed   int64
	grid   campaign.Grid
	events map[shape]int64
}

func (w *ndSweep) setup(ctx context.Context) error {
	g := campaign.Grid{
		Patterns:   []string{"message_race", "amg2013", "unstructured_mesh"},
		Procs:      []int{16, 32, 64},
		Iterations: []int{1, 2},
		Nodes:      []int{1, 2},
		NDPercents: []float64{0, 25, 50, 75, 100},
		Runs:       20,
		BaseSeed:   baseSeed(w.seed, 1),
	}
	if w.sz == tiny {
		g.Procs, g.Iterations, g.Nodes, g.NDPercents, g.Runs = []int{4}, []int{1}, []int{1, 2}, []float64{0, 100}, 3
	}
	q, err := g.Normalized()
	if err != nil {
		return err
	}
	w.grid = q
	w.events = make(map[shape]int64)
	if err := eventsPerRun(ctx, q, w.events); err != nil {
		return err
	}
	// Warm-up: the grid's last (largest) cell of each pattern.
	specs := q.CellSpecs()
	per := len(specs) / len(q.Patterns)
	for i := per - 1; i < len(specs); i += per {
		if c := campaign.RunCell(ctx, q, specs[i], 0); c.Err != nil {
			return fmt.Errorf("warm-up: %w", c.Err)
		}
	}
	return nil
}

func (w *ndSweep) pass(ctx context.Context, t *tracer) (pass, error) {
	var p pass
	start := time.Now()
	res, latMS, simulated, err := runGrid(ctx, t, w.grid, "")
	p.wall = time.Since(start)
	if err != nil {
		return p, err
	}
	p.latMS = latMS
	for i, ok := range checkCells(&p, res.Cells) {
		c := res.Cells[i]
		want := int64(c.Runs) * w.events[shapeOf(specOf(c))]
		if ok && simulated != nil && simulated[specOf(c)] != want {
			p.fail(1, "%s: simulated %d events, predicted %d", cellName(c), simulated[specOf(c)], want)
		}
		p.events += want
	}
	p.csv, err = csvBytes(res)
	return p, err
}

// largeP is the large-P archive path: 1024-rank cells run through
// campaign.Runner{ArchiveDir}, so every run goes sim → StreamWriter →
// v2 file → FeaturesFromReader + OrderHash.
type largeP struct {
	sz    size
	seed  int64
	dir   string
	grids []campaign.Grid
}

func (w *largeP) setup(ctx context.Context) error {
	race := campaign.Grid{
		Patterns: []string{"message_race"}, Procs: []int{1024}, Iterations: []int{24},
		Nodes: []int{4}, NDPercents: []float64{100}, Runs: 4, BaseSeed: baseSeed(w.seed, 2),
	}
	stencil := campaign.Grid{
		Patterns: []string{"stencil2d"}, Procs: []int{1024}, Iterations: []int{6},
		Nodes: []int{4}, NDPercents: []float64{100}, Runs: 4, BaseSeed: baseSeed(w.seed, 3),
	}
	if w.sz == tiny {
		race.Procs, race.Iterations, race.Runs = []int{16}, []int{2}, 2
		stencil.Procs, stencil.Iterations, stencil.Runs = []int{16}, []int{2}, 2
	}
	w.grids = w.grids[:0]
	for _, g := range []campaign.Grid{race, stencil} {
		q, err := g.Normalized()
		if err != nil {
			return err
		}
		w.grids = append(w.grids, q)
	}
	// Warm-up: the race cell through the streaming, archiving pipeline.
	dir := filepath.Join(w.dir, "warm-up")
	defer os.RemoveAll(dir)
	if c := campaign.RunCellStream(ctx, w.grids[0], w.grids[0].CellSpecs()[0], 0, dir, trace.CodecOptions{}); c.Err != nil {
		return fmt.Errorf("warm-up: %w", c.Err)
	}
	return nil
}

func (w *largeP) pass(ctx context.Context, t *tracer) (pass, error) {
	var p pass
	dir := filepath.Join(w.dir, "archive")
	if err := os.RemoveAll(dir); err != nil {
		return p, err
	}
	var cells []campaign.Cell
	var csv []byte
	start := time.Now()
	for _, g := range w.grids {
		res, latMS, _, err := runGrid(ctx, t, g, dir)
		if err != nil {
			return p, err
		}
		p.latMS = append(p.latMS, latMS...)
		cells = append(cells, res.Cells...)
		b, err := csvBytes(res)
		if err != nil {
			return p, err
		}
		csv = append(csv, b...)
	}
	p.wall = time.Since(start)
	p.csv = csv
	checkCells(&p, cells)

	// Count events and bytes from the archives' footers, outside the
	// timed region.
	files := 0
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		r, err := trace.OpenReader(path)
		if err != nil {
			return err
		}
		defer r.Close()
		fi, err := os.Stat(path)
		if err != nil {
			return err
		}
		files++
		p.events += int64(r.NumEvents())
		p.archiveBytes += fi.Size()
		return nil
	})
	if err != nil {
		return p, fmt.Errorf("reading archives: %w", err)
	}
	want := 0
	for _, g := range w.grids {
		want += g.Cells() * g.Runs
	}
	if files != want {
		p.fail(len(p.latMS)-p.failed, "found %d archived runs, want %d", files, want)
	}
	return p, nil
}
