package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"time"

	"github.com/anacin-go/anacinx/internal/campaign"
	"github.com/anacin-go/anacinx/internal/kernel"
	"github.com/anacin-go/anacinx/internal/serve"
)

// classServe is a course class using anacind: lesson-sized grids
// arrive open-loop at seeded Poisson times and run through
// serve.Registry against a fresh serve.Store. A lesson is
// campaign.DefaultGrid narrowed to one mini-application: its ND levels,
// which the class shares, plus one ND level of the student's own.
type classServe struct {
	sz     size
	seed   int64
	jobs   []classJob
	events map[shape]int64
}

// classJob is one student's submission.
type classJob struct {
	grid     campaign.Grid // normalized
	due      time.Duration // arrival offset from the start of the pass
	expected []byte        // the CSV a campaign.Runner run of the grid writes
	events   int64         // events carried by the job's result
}

// classConfig sizes the class.
type classConfig struct {
	patterns []string
	procs    []int
	nodes    []int
	standard []float64 // ND levels every lesson includes
	runs     int
	jobs     int     // a multiple of the number of choices
	ratePerS float64 // mean arrival rate of the open loop
}

func (w *classServe) config() classConfig {
	c := classConfig{
		patterns: []string{"message_race", "amg2013", "unstructured_mesh"},
		procs:    []int{16},
		nodes:    []int{1},
		standard: []float64{0, 50, 100},
		runs:     campaign.DefaultRuns,
		jobs:     120,
		// Well below saturation: a burst of the same 120 jobs completes
		// at 90–100 jobs/s on a 2-vCPU box, so no backlog builds up.
		ratePerS: 6,
	}
	if w.sz == tiny {
		c.procs, c.runs, c.jobs, c.ratePerS = []int{4}, 3, 6, 200
	}
	return c
}

func (w *classServe) setup(ctx context.Context) error {
	c := w.config()
	rng := rand.New(rand.NewSource(w.seed*7919 + 5))
	base := baseSeed(w.seed, 6)
	w.jobs = w.jobs[:0]
	w.events = make(map[shape]int64)
	own := make(map[float64]bool)
	// Every (pattern, procs, nodes) choice is taken by the same number of
	// students, in a seeded order, so the class's work is the same for
	// every seed. Arrivals are a Poisson process conditioned on the job
	// count over the window: sorted uniform times.
	var choices []shape
	for _, pat := range c.patterns {
		for _, procs := range c.procs {
			for _, nodes := range c.nodes {
				choices = append(choices, shape{pattern: pat, procs: procs, iters: 1, nodes: nodes})
			}
		}
	}
	span := float64(c.jobs) / c.ratePerS * float64(time.Second)
	due := make([]time.Duration, c.jobs)
	for j := range due {
		due[j] = time.Duration(rng.Float64() * span)
	}
	slices.Sort(due)
	perm := rng.Perm(c.jobs)
	// Jobs sharing a choice are checked against one campaign.Runner run
	// over the union of their ND levels.
	groups := make(map[shape][]int)
	var order []shape
	for j := 0; j < c.jobs; j++ {
		sh := choices[perm[j]%len(choices)]
		var x float64
		for x == 0 || own[x] || isStandard(x, c.standard) {
			x = float64(1+rng.Intn(9899)) / 100 // (0, 99)
		}
		own[x] = true
		g := campaign.Grid{
			Patterns: []string{sh.pattern}, Procs: []int{sh.procs}, Iterations: []int{sh.iters},
			Nodes: []int{sh.nodes}, NDPercents: append(append([]float64(nil), c.standard...), x),
			Runs: c.runs, BaseSeed: base, Kernel: kernel.NewWL(2),
		}
		q, err := g.Normalized()
		if err != nil {
			return err
		}
		if groups[sh] == nil {
			order = append(order, sh)
		}
		groups[sh] = append(groups[sh], j)
		w.jobs = append(w.jobs, classJob{grid: q, due: due[j]})
	}
	for _, sh := range order {
		union := w.jobs[groups[sh][0]].grid
		union.NDPercents = append([]float64(nil), c.standard...)
		for _, j := range groups[sh] {
			union.NDPercents = append(union.NDPercents, w.jobs[j].grid.NDPercents[len(c.standard)])
		}
		if err := eventsPerRun(ctx, union, w.events); err != nil {
			return err
		}
		res, err := (&campaign.Runner{}).Run(ctx, union)
		if err != nil {
			return fmt.Errorf("reference run: %w", err)
		}
		byND := make(map[float64]campaign.Cell, len(res.Cells))
		for _, cell := range res.Cells {
			byND[cell.NDPercent] = cell
		}
		for _, j := range groups[sh] {
			job := &w.jobs[j]
			ref := &campaign.Result{KernelName: res.KernelName}
			for _, spec := range job.grid.CellSpecs() {
				ref.Cells = append(ref.Cells, byND[spec.NDPercent])
				job.events += int64(job.grid.Runs) * w.events[sh]
			}
			campaign.SortCells(ref.Cells)
			if job.expected, err = csvBytes(ref); err != nil {
				return err
			}
		}
	}
	return nil
}

func isStandard(x float64, standard []float64) bool {
	for _, s := range standard {
		if x == s {
			return true
		}
	}
	return false
}

// jobOutcome is what the pass observed of one job.
type jobOutcome struct {
	due, submitted, done time.Duration // offsets from the pass start
	result               *campaign.Result
	failed               error
}

// cellOutcome is what the serve layer reported for one cell request.
type cellOutcome struct {
	source serve.Source
	wallMS float64
}

func (w *classServe) pass(ctx context.Context, t *tracer) (pass, error) {
	var p pass
	outcomes := make([]jobOutcome, len(w.jobs))
	var cells [][]cellOutcome
	var store *serve.Store
	start := time.Now()
	if t == nil {
		store, cells = w.runRegistry(ctx, start, outcomes)
	} else {
		store, cells = w.runTraced(ctx, t, start, outcomes)
	}
	for _, o := range outcomes {
		p.wall = max(p.wall, o.done)
	}

	sv := &serveStats{jobs: len(w.jobs)}
	for j, o := range outcomes {
		job := w.jobs[j]
		p.latMS = append(p.latMS, ms(o.done-o.due))
		sv.genLagMSMax = max(sv.genLagMSMax, ms(o.submitted-o.due))
		for _, c := range cells[j] {
			sv.cellRequests++
			if c.source == serve.SourceComputed {
				sv.missCellMS = append(sv.missCellMS, c.wallMS)
			}
		}
		if o.failed != nil || o.result == nil {
			sv.jobsFailed++
			p.fail(1, "job %d: %v", j, o.failed)
			continue
		}
		got, err := csvBytes(o.result)
		if err != nil {
			return p, err
		}
		before := p.failed
		checkCells(&p, o.result.Cells)
		switch {
		case p.failed > before:
			sv.jobsFailed++
			p.failed = before + 1 // one job is one op
		case !bytes.Equal(got, job.expected):
			sv.jobsFailed++
			p.fail(1, "job %d: CSV differs from the campaign.Runner reference", j)
		default:
			p.events += job.events
		}
		p.csv = append(p.csv, got...)
	}
	sv.storeMisses = int(store.Misses())
	sv.reused = int(store.Hits() + store.Joined())
	p.serve = sv
	return p, nil
}

// generate submits every job at its due time and records when each
// one ends. submit starts job j and returns a channel closed when the
// job has reached a terminal state.
func (w *classServe) generate(ctx context.Context, start time.Time, outcomes []jobOutcome, submit func(j int) <-chan struct{}) {
	var wg sync.WaitGroup
	for j, job := range w.jobs {
		if d := time.Until(start.Add(job.due)); d > 0 {
			select {
			case <-time.After(d):
			case <-ctx.Done():
			}
		}
		outcomes[j].due = job.due
		outcomes[j].submitted = time.Since(start)
		done := submit(j)
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-done
			outcomes[j].done = time.Since(start)
		}()
	}
	wg.Wait()
}

// runRegistry is the untraced pass: jobs go through serve.Registry.
func (w *classServe) runRegistry(ctx context.Context, start time.Time, outcomes []jobOutcome) (*serve.Store, [][]cellOutcome) {
	store := serve.NewStore()
	reg := serve.NewRegistry(store, 0, 0)
	jobs := make([]*serve.Job, len(w.jobs))
	w.generate(ctx, start, outcomes, func(j int) <-chan struct{} {
		job, err := reg.Submit(w.jobs[j].grid)
		if err != nil {
			outcomes[j].failed = err
			done := make(chan struct{})
			close(done)
			return done
		}
		jobs[j] = job
		return job.Done()
	})
	if err := reg.Drain(ctx); err != nil {
		for j := range outcomes {
			outcomes[j].failed = err
		}
	}
	cells := make([][]cellOutcome, len(jobs))
	for j, job := range jobs {
		if job == nil {
			continue
		}
		if st := job.Status(); st != serve.StatusDone {
			outcomes[j].failed = fmt.Errorf("status %s", st)
		}
		outcomes[j].result = job.Result()
		for _, cv := range job.Cells() {
			cells[j] = append(cells[j], cellOutcome{source: cv.Source, wallMS: float64(cv.WallMS)})
		}
	}
	return store, cells
}

// runTraced is the traced pass: the same jobs run through a fresh
// serve.Store on serve.Registry's worker budget — per job, up to
// GOMAXPROCS cells at once; across jobs, GOMAXPROCS simulations in
// flight — with every computed cell going through the span-recording
// cell pipeline.
func (w *classServe) runTraced(ctx context.Context, t *tracer, start time.Time, outcomes []jobOutcome) (*serve.Store, [][]cellOutcome) {
	store := serve.NewStore()
	simSlots := make(chan struct{}, runtime.GOMAXPROCS(0))
	cells := make([][]cellOutcome, len(w.jobs))
	w.generate(ctx, start, outcomes, func(j int) <-chan struct{} {
		done := make(chan struct{})
		go func() {
			defer close(done)
			group := t.group()
			js := t.begin("serve.job", 0, group)
			js.Start = int64(start.Add(w.jobs[j].due).Sub(t.epoch)) // a job's latency runs from its due time
			g := w.jobs[j].grid
			specs := g.CellSpecs()
			got := make([]campaign.Cell, len(specs))
			cells[j] = make([]cellOutcome, len(specs))
			workers, runWorkers := runnerBudget(len(specs))
			forEach(ctx, len(specs), workers, func(i int) {
				cs := t.begin("serve.cell", js.ID, group)
				t0 := time.Now()
				cell, src, err := store.GetOrCompute(ctx, g.CellFingerprint(specs[i]), func(cctx context.Context) campaign.Cell {
					select {
					case simSlots <- struct{}{}:
					case <-cctx.Done():
						c := cellShell(g, specs[i])
						c.Err = cctx.Err()
						return c
					}
					defer func() { <-simSlots }()
					c, ev := tracedCell(cctx, t, cs.ID, group, g, specs[i], runWorkers)
					if want := int64(g.Runs) * w.events[shapeOf(specs[i])]; c.Err == nil && ev != want {
						c.Err = fmt.Errorf("simulated %d events, predicted %d", ev, want)
					}
					return c
				})
				t.end(cs)
				if err != nil {
					cell = cellShell(g, specs[i])
					cell.Err = err
				}
				got[i] = cell
				cells[j][i] = cellOutcome{source: src, wallMS: ms(time.Since(t0))}
			})
			campaign.SortCells(got)
			outcomes[j].result = &campaign.Result{KernelName: g.Kernel.Name(), Cells: got}
			t.end(js)
		}()
		return done
	})
	return store, cells
}
