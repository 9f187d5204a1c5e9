package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"time"

	"github.com/anacin-go/anacinx/internal/analysis"
	"github.com/anacin-go/anacinx/internal/campaign"
	"github.com/anacin-go/anacinx/internal/core"
	"github.com/anacin-go/anacinx/internal/kernel"
)

// replay is the read side alone: the `anacin replay` loop over archives
// that set-up wrote from a small-P grid with stacks on.
type replay struct {
	sz    size
	seed  int64
	dir   string
	reps  int
	grid  campaign.Grid
	cells []liveCell
}

// liveCell is what the live streaming pipeline recorded for one cell
// while set-up archived it: the reference replay must reproduce.
type liveCell struct {
	spec     campaign.CellSpec
	paths    []string
	sizes    []int64
	features []kernel.FeatureVector
	hashes   []uint64
	summary  analysis.Summary
	distinct int
}

func (w *replay) setup(ctx context.Context) error {
	g := campaign.Grid{
		Patterns:      []string{"message_race", "amg2013", "unstructured_mesh"},
		Procs:         []int{16, 32, 64},
		Iterations:    []int{1},
		Nodes:         []int{2},
		NDPercents:    []float64{100},
		Runs:          20,
		BaseSeed:      baseSeed(w.seed, 4),
		CaptureStacks: true,
	}
	if w.sz == tiny {
		g.Procs, g.Runs = []int{4}, 3
	}
	q, err := g.Normalized()
	if err != nil {
		return err
	}
	w.grid = q
	// Each set-up writes a fresh archive and drops the previous one.
	w.reps++
	root := filepath.Join(w.dir, fmt.Sprintf("replay-setup-%d", w.reps))
	if w.reps > 1 {
		if err := os.RemoveAll(filepath.Join(w.dir, fmt.Sprintf("replay-setup-%d", w.reps-1))); err != nil {
			return err
		}
	}
	w.cells = w.cells[:0]
	for i, spec := range q.CellSpecs() {
		e := core.DefaultExperiment(spec.Pattern, spec.Procs, spec.NDPercent)
		e.Iterations, e.Nodes = spec.Iterations, spec.Nodes
		e.Runs, e.BaseSeed, e.CaptureStacks = q.Runs, q.BaseSeed, q.CaptureStacks
		srs, err := e.ExecuteStreamContext(ctx, q.Kernel, filepath.Join(root, fmt.Sprintf("cell-%03d", i)))
		if err != nil {
			return fmt.Errorf("archiving %v: %w", spec, err)
		}
		lc := liveCell{
			spec: spec, paths: srs.TracePaths, features: srs.Features, hashes: srs.OrderHashes,
			summary: srs.DistanceSummary(), distinct: srs.DistinctStructures(),
		}
		for _, p := range lc.paths {
			fi, err := os.Stat(p)
			if err != nil {
				return err
			}
			lc.sizes = append(lc.sizes, fi.Size())
		}
		w.cells = append(w.cells, lc)
	}
	// Warm-up: replay one archive.
	_, err = replayFile(nil, 0, 0, q.Kernel, w.cells[0].paths[0])
	return err
}

func (w *replay) pass(ctx context.Context, t *tracer) (pass, error) {
	var p pass
	res := &campaign.Result{KernelName: w.grid.Kernel.Name()}
	start := time.Now()
	for _, lc := range w.cells {
		if err := ctx.Err(); err != nil {
			return p, err
		}
		group := t.group()
		feats := make([]kernel.FeatureVector, len(lc.paths))
		hashes := make([]uint64, len(lc.paths))
		cellOK := true
		for i, path := range lc.paths {
			op := t.begin("replay.trace", 0, group)
			t0 := time.Now()
			rp, err := replayFile(t, op.ID, group, w.grid.Kernel, path)
			p.latMS = append(p.latMS, ms(time.Since(t0)))
			t.end(op)
			switch {
			case err != nil:
				p.fail(1, "%s: %v", path, err)
			case rp.hash != lc.hashes[i]:
				p.fail(1, "%s: order hash %x, live run recorded %x", path, rp.hash, lc.hashes[i])
			case !equalFeatures(rp.features, lc.features[i]):
				p.fail(1, "%s: embedding differs from the live run's", path)
			default:
				p.events += int64(rp.events)
				t.count(cArchiveBytes, lc.sizes[i])
				t.count(cArchiveEvents, int64(rp.events))
				feats[i], hashes[i] = rp.features, rp.hash
				continue
			}
			cellOK = false
		}
		c := cellShell(w.grid, lc.spec)
		if !cellOK {
			c.Err = fmt.Errorf("replay failed")
			res.Cells = append(res.Cells, c)
			continue
		}
		c.Summary = gram(t, 0, group, w.grid.Kernel.Name(), feats)
		c.DistinctStructures = countDistinct(hashes)
		if c.Summary != lc.summary || c.DistinctStructures != lc.distinct {
			p.fail(1, "%s: replayed summary %+v/%d differs from live %+v/%d",
				cellName(c), c.Summary, c.DistinctStructures, lc.summary, lc.distinct)
		} else {
			checkCells(&p, []campaign.Cell{c})
		}
		res.Cells = append(res.Cells, c)
	}
	p.wall = time.Since(start)
	campaign.SortCells(res.Cells)
	var err error
	p.csv, err = csvBytes(res)
	return p, err
}

func equalFeatures(a, b kernel.FeatureVector) bool {
	return slices.Equal(a.Keys, b.Keys) && slices.Equal(a.Vals, b.Vals)
}

func csvBytes(res *campaign.Result) ([]byte, error) {
	var b bytes.Buffer
	if err := res.WriteCSV(&b); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}
