package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// benchmarkSpec is the part of BENCHMARK.json the tests check against.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var s benchmarkSpec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

func tinyOptions(t *testing.T, workload string, traced bool) options {
	return options{
		workload: workload, seed: 3, seconds: 0.001, trace: traced, size: tiny,
		root: "..", work: t.TempDir(), commit: "test",
	}
}

// TestWorkloadsMatchBenchmarkJSON pins the workload list to the one
// BENCHMARK.json declares.
func TestWorkloadsMatchBenchmarkJSON(t *testing.T) {
	spec := loadSpec(t)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames, ",") {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark runs %v", names, workloadNames)
	}
}

// TestTinyWorkloads pushes a tiny size of every workload through its
// output checks, untraced and traced, and checks that every metric
// BENCHMARK.json names is emitted with its unit.
func TestTinyWorkloads(t *testing.T) {
	spec := loadSpec(t)
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			res, inf, err := execute(context.Background(), tinyOptions(t, name, true))
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("correct=%v attempted=%d failed=%d failures=%v", res.Correct, res.Attempted, res.Failed, inf.Failures)
			}
			for _, m := range spec.EndToEnd {
				got, ok := inf.Untraced[m.Name]
				if !ok || got.Unit != m.Unit || !(got.Value > 0) {
					t.Errorf("end-to-end metric %s: got %+v (present %v), want unit %s and a positive value", m.Name, got, ok, m.Unit)
				}
			}
			for _, m := range spec.PerLayer {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("per-layer metric %s: got %+v (present %v), want unit %s", m.Name, got, ok, m.Unit)
				}
			}
			if len(res.Metrics) != len(spec.PerLayer) {
				t.Errorf("traced run emits %d metrics, BENCHMARK.json names %d per-layer metrics", len(res.Metrics), len(spec.PerLayer))
			}
			if inf.Env.GOMAXPROCS < 1 || inf.Env.GOMAXPROCS > inf.Env.NProc || inf.Env.SourceSHA256 == "" {
				t.Errorf("environment %+v", inf.Env)
			}
		})
	}
}

// TestTracedMatchesUntraced checks that the span-recording pipelines
// produce byte-identical results to the untraced layer calls.
func TestTracedMatchesUntraced(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			ctx := context.Background()
			w := newWorkload(name, tiny, 5, t.TempDir())
			if err := w.setup(ctx); err != nil {
				t.Fatal(err)
			}
			plain, err := measure(ctx, w, 0, nil)
			if err != nil {
				t.Fatal(err)
			}
			tr := newTracer()
			traced, err := measure(ctx, w, 0, tr)
			if err != nil {
				t.Fatal(err)
			}
			if plain.digest != traced.digest {
				t.Fatalf("traced digest %s, untraced %s", traced.digest, plain.digest)
			}
			if plain.failed != 0 || traced.failed != 0 {
				t.Fatalf("failed ops: untraced %d %v, traced %d %v", plain.failed, plain.failures, traced.failed, traced.failures)
			}
			if len(tr.snapshot()) == 0 {
				t.Fatal("traced run recorded no spans")
			}
		})
	}
}

// TestSeedChangesInputs checks that the workload seed reaches the grid.
func TestSeedChangesInputs(t *testing.T) {
	ctx := context.Background()
	digest := func(seed int64) string {
		w := newWorkload("nd-sweep", tiny, seed, t.TempDir())
		if err := w.setup(ctx); err != nil {
			t.Fatal(err)
		}
		m, err := measure(ctx, w, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		return m.digest
	}
	if a, b := digest(1), digest(1); a != b {
		t.Fatalf("same seed, digests %s and %s", a, b)
	}
	if a, b := digest(1), digest(2); a == b {
		t.Fatalf("seeds 1 and 2 gave the same digest %s", a)
	}
}

// TestResultLine checks the command-line contract: a bad invocation
// prints no result, and the result line is a JSON object with exactly
// the four result keys.
func TestResultLine(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"--workload", "nope"}, &out, &errOut); code == 0 || out.Len() != 0 {
		t.Fatalf("unknown workload: exit %d, stdout %q", code, out.String())
	}
	if code := run([]string{"--workload", "replay", "--trace", "2"}, &out, &errOut); code == 0 || out.Len() != 0 {
		t.Fatalf("bad -trace: exit %d, stdout %q", code, out.String())
	}
	b, err := json.Marshal(result{Metrics: map[string]metric{}})
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(b, &keys); err != nil {
		t.Fatal(err)
	}
	if len(keys) != 4 || keys["correct"] == nil || keys["attempted"] == nil || keys["failed"] == nil || keys["metrics"] == nil {
		t.Fatalf("result keys %s", b)
	}
}
