//go:build go1.23

package sim

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"

	"github.com/anacin-go/anacinx/internal/trace"
	"github.com/anacin-go/anacinx/internal/vtime"
)

// idleCoros reports the pool size and checks that every pooled
// coroutine is parked: no assignment left behind by a run.
func idleCoros(t *testing.T) int {
	t.Helper()
	coroPool.Lock()
	defer coroPool.Unlock()
	for _, c := range coroPool.idle {
		if c.s != nil || c.r != nil || c.program != nil {
			t.Fatal("pooled coroutine still holds a run's assignment")
		}
	}
	return len(coroPool.idle)
}

// drainCoroPool stops every parked coroutine, leaving a cold pool.
func drainCoroPool() {
	coroPool.Lock()
	idle := coroPool.idle
	coroPool.idle = nil
	coroPool.Unlock()
	for _, c := range idle {
		c.stop()
	}
}

// liveGoroutines counts goroutines other than parked pool coroutines.
// Coroutines exit synchronously when stopped, so the count is exact
// right after a run returns.
func liveGoroutines(t *testing.T) int {
	t.Helper()
	return runtime.NumGoroutine() - idleCoros(t)
}

// checkNoLeak fails when live goroutines grew past base. Goroutines
// that earlier tests left behind may still be exiting, so the count may
// drop, but a coroutine the run neither pooled nor stopped raises it.
func checkNoLeak(t *testing.T, what string, base int) {
	t.Helper()
	if got := liveGoroutines(t); got > base {
		t.Errorf("%s: %d live goroutines after the run, %d before", what, got, base)
	}
}

// ringExchange passes a token around the ring iters times; rank 0
// calls hook (when non-nil) at the start of each iteration.
func ringExchange(iters int, hook func(it int)) Program {
	return func(r *Rank) {
		next := (r.id + 1) % r.Size()
		prev := (r.id - 1 + r.Size()) % r.Size()
		for it := 0; it < iters; it++ {
			if r.id == 0 && hook != nil {
				hook(it)
			}
			r.Sendrecv(next, 0, []byte{1}, prev, 0)
			r.Compute(vtime.Microsecond)
		}
	}
}

// Every way a run can end must leave no coroutine behind except the
// parked ones in the pool: a rank left suspended mid-program would be
// a goroutine leak per run.
func TestCoroLifecycleNoLeak(t *testing.T) {
	preCancelled, cancel := context.WithCancel(context.Background())
	cancel()
	cases := []struct {
		name    string
		run     func() error
		wantErr bool
	}{
		{"complete", func() error {
			_, _, err := Run(DefaultConfig(6, 1), trace.Meta{}, ringExchange(5, nil))
			return err
		}, false},
		{"deadlock", func() error {
			_, _, err := Run(DefaultConfig(6, 1), trace.Meta{}, func(r *Rank) { r.Recv(AnySource, AnyTag) })
			return err
		}, true},
		{"panic", func() error {
			_, _, err := Run(DefaultConfig(6, 1), trace.Meta{}, func(r *Rank) {
				if r.id == 3 {
					panic("boom")
				}
				r.Recv(AnySource, AnyTag)
			})
			return err
		}, true},
		{"step-budget", func() error {
			cfg := DefaultConfig(6, 1)
			cfg.MaxEvents = 200
			_, _, err := Run(cfg, trace.Meta{}, ringExchange(1000, nil))
			return err
		}, true},
		{"pre-cancelled", func() error {
			_, _, err := RunContext(preCancelled, DefaultConfig(6, 1), trace.Meta{}, ringExchange(5, nil))
			return err
		}, true},
		{"cancelled-mid-run", func() error {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			hook := func(it int) {
				if it == 100 {
					cancel()
				}
			}
			_, _, err := RunContext(ctx, DefaultConfig(6, 1), trace.Meta{}, ringExchange(100_000, hook))
			if !errors.Is(err, context.Canceled) {
				t.Errorf("cancelled-mid-run: err = %v, want context.Canceled", err)
			}
			return err
		}, true},
	}
	for _, tc := range cases {
		base := liveGoroutines(t)
		err := tc.run()
		if (err != nil) != tc.wantErr {
			t.Errorf("%s: err = %v, want error %v", tc.name, err, tc.wantErr)
		}
		checkNoLeak(t, tc.name, base)
	}
}

// A rank that calls runtime.Goexit (as t.FailNow does) ends the
// goroutine driving the run. The dead coroutine must not be pooled,
// and the other ranks must be unwound rather than leaked.
func TestCoroGoexitNeverPooled(t *testing.T) {
	cfg := DefaultConfig(4, 1)
	program := ringExchange(20, nil)
	want, _, err := Run(cfg, trace.Meta{}, program)
	if err != nil {
		t.Fatal(err)
	}
	base := liveGoroutines(t)
	done := make(chan bool)
	go func() {
		returned := false
		defer func() { done <- returned }()
		Run(cfg, trace.Meta{}, ringExchange(20, func(it int) {
			if it == 10 {
				runtime.Goexit()
			}
		}))
		returned = true
	}()
	if <-done {
		t.Fatal("Run returned after a rank called runtime.Goexit")
	}
	checkNoLeak(t, "Goexit run", base)
	got, _, err := Run(cfg, trace.Meta{}, program)
	if err != nil {
		t.Fatal(err)
	}
	if got.Hash() != want.Hash() {
		t.Error("run after a Goexit run differs from the run before it")
	}
}

func TestCoroPoolCapped(t *testing.T) {
	cfg := DefaultConfig(maxIdleCoros+10, 1)
	cfg.CaptureStacks = false
	base := liveGoroutines(t)
	mustRun(t, cfg, func(r *Rank) {})
	if n := idleCoros(t); n != maxIdleCoros {
		t.Errorf("pool holds %d coroutines after a %d-rank run, want %d", n, cfg.Procs, maxIdleCoros)
	}
	checkNoLeak(t, "capped run", base)
}

// runBytes runs program and returns the v1 trace bytes and the stats.
func runBytes(t *testing.T, cfg Config, program Program) ([]byte, Stats) {
	t.Helper()
	tr, stats := mustRun(t, cfg, program)
	var buf bytes.Buffer
	if err := tr.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), *stats
}

// Coroutines reused after a run that panicked — ranks unwound from the
// middle of their programs — must behave exactly like fresh ones.
func TestCoroReuseAfterPanicMatchesColdPool(t *testing.T) {
	cfg := DefaultConfig(8, 3)
	cfg.Nodes = 2
	cfg.NDPercent = 50
	program := racyProgram(8, 4)

	drainCoroPool()
	cold, coldStats := runBytes(t, cfg, program)

	_, _, err := Run(cfg, trace.Meta{}, func(r *Rank) {
		if r.id == 5 {
			r.Compute(vtime.Microsecond)
			panic("boom")
		}
		r.Recv(AnySource, AnyTag)
	})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want PanicError", err)
	}
	if n := idleCoros(t); n < cfg.Procs {
		t.Fatalf("pool holds %d coroutines after the panicking run, want >= %d", n, cfg.Procs)
	}

	warm, warmStats := runBytes(t, cfg, program)
	if !bytes.Equal(cold, warm) {
		t.Error("trace on reused coroutines differs from the cold-pool trace")
	}
	if warmStats != coldStats {
		t.Errorf("stats on reused coroutines %+v, cold pool %+v", warmStats, coldStats)
	}
}

// The scheduler counters are a pure function of the schedule: the same
// across repeated runs, GOMAXPROCS settings and pool states.
func TestSchedulerCountersDeterministic(t *testing.T) {
	cfg := DefaultConfig(16, 9)
	cfg.Nodes = 2
	cfg.NDPercent = 30
	program := ringExchange(40, nil)

	drainCoroPool()
	_, want := runBytes(t, cfg, program)
	if want.Switches == 0 || want.FastYields == 0 {
		t.Fatalf("counters not exercised: %+v", want)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 4, 1, 4} {
		runtime.GOMAXPROCS(procs)
		if _, got := runBytes(t, cfg, program); got != want {
			t.Errorf("GOMAXPROCS=%d, warm pool: stats %+v, want %+v", procs, got, want)
		}
	}
}

// Callstacks must read as the rank program's call path: the coroutine
// plumbing under every rank is trimmed like the simulator's own frames.
func TestCallstacksOmitCoroutineFrames(t *testing.T) {
	tr, _ := mustRun(t, DefaultConfig(4, 1), ringExchange(3, nil))
	for _, evs := range tr.Events {
		for i := range evs {
			for _, f := range evs[i].Callstack {
				if strings.HasPrefix(f, "iter.") || strings.HasPrefix(f, "runtime.") || strings.Contains(f, "rankCoro") {
					t.Fatalf("callstack %v leaked coroutine frame %q", evs[i].Callstack, f)
				}
			}
		}
	}
}
