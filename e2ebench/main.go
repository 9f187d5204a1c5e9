// Command e2ebench is the repository's end-to-end benchmark. It runs one
// workload in-process through the layers' public Go APIs, checks every
// output, and prints one JSON result line:
//
//	bash e2ebench/run.sh --workload nd-sweep --seed 1 --seconds 20 --trace 0
//
// With -trace 0 it reports the end-to-end metrics of BENCHMARK.json;
// with -trace 1 it also runs a traced copy of the workload and reports
// the per-layer metrics. See README.md for the workloads and metrics.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// options are one invocation's settings.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	size     size
	root     string // repository root, for the source digest
	work     string // directory for archives and span files
	commit   string
}

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	var o options
	var traceFlag int
	fl.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	fl.Int64Var(&o.seed, "seed", 1, "workload seed: grid base seeds, class picks and arrival times derive from it")
	fl.Float64Var(&o.seconds, "seconds", 20, "measurement window in seconds")
	fl.IntVar(&traceFlag, "trace", 0, "1 adds a traced run and reports per-layer metrics")
	fl.StringVar(&o.root, "root", ".", "repository root")
	fl.StringVar(&o.work, "work", ".bench_build", "directory for archives and span files")
	fl.StringVar(&o.commit, "commit", "none", "commit the benchmark was built from")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	if traceFlag != 0 && traceFlag != 1 {
		fmt.Fprintf(stderr, "e2ebench: -trace must be 0 or 1, got %d\n", traceFlag)
		return 2
	}
	o.trace = traceFlag == 1
	if o.seconds <= 0 {
		fmt.Fprintf(stderr, "e2ebench: -seconds must be positive\n")
		return 2
	}
	if newWorkload(o.workload, full, o.seed, "") == nil {
		fmt.Fprintf(stderr, "e2ebench: unknown workload %q (want one of %s)\n", o.workload, strings.Join(workloadNames, ", "))
		return 2
	}
	runtime.GOMAXPROCS(runtime.NumCPU())

	res, info, err := execute(context.Background(), o)
	if err != nil {
		fmt.Fprintf(stderr, "e2ebench: %v\n", err)
		return 1
	}
	for _, v := range []any{info, res} {
		line, err := json.Marshal(v)
		if err != nil {
			fmt.Fprintf(stderr, "e2ebench: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "%s\n", line)
	}
	if !res.Correct {
		return 1
	}
	return 0
}

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// environment identifies where and from what a result was measured.
type environment struct {
	GoVersion    string `json:"go"`
	GOMAXPROCS   int    `json:"gomaxprocs"`
	NProc        int    `json:"nproc"`
	Commit       string `json:"commit"`
	SourceSHA256 string `json:"source_sha256"`
}

// info is the line printed before the result: the workload's identity,
// its environment, the CSV digest every pass must repeat, and the
// numbers that validate a run without being regression metrics.
type info struct {
	Workload  string      `json:"workload"`
	Seed      int64       `json:"seed"`
	Traced    bool        `json:"traced"`
	Env       environment `json:"env"`
	CSVSHA256 string      `json:"csv_sha256"`
	SetupS    []float64   `json:"setup_runs_s"`
	Passes    int         `json:"passes"`
	PassS     []float64   `json:"pass_s"`
	Ops       int         `json:"ops"`
	MeasuredS float64     `json:"measured_s"`
	// OpMSP90 is reported when a run has at least 100 ops, so that at
	// least ten samples lie beyond it.
	OpMSP90              *float64 `json:"op_ms_p90,omitempty"`
	PeakRSSMiB           float64  `json:"peak_rss_mib"`
	ArchiveBytesPerEvent *float64 `json:"archive_bytes_per_event,omitempty"`
	GenLagMSMax          *float64 `json:"gen_lag_ms_max,omitempty"`
	// Untraced holds the end-to-end metrics of a traced invocation's
	// untraced measurement.
	Untraced  map[string]metric `json:"untraced,omitempty"`
	SpansFile string            `json:"spans_file,omitempty"`
	Failures  []string          `json:"failures,omitempty"`
}

// setupReps is how many times set-up runs; setup_s is their median.
const setupReps = 3

func execute(ctx context.Context, o options) (result, info, error) {
	inf := info{Workload: o.workload, Seed: o.seed, Traced: o.trace}
	src, err := sourceDigest(o.root)
	if err != nil {
		return result{}, inf, err
	}
	inf.Env = environment{
		GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc: runtime.NumCPU(), Commit: o.commit, SourceSHA256: src,
	}
	if err := os.MkdirAll(o.work, 0o755); err != nil {
		return result{}, inf, err
	}
	dir, err := os.MkdirTemp(o.work, "run-"+o.workload+"-")
	if err != nil {
		return result{}, inf, err
	}
	defer os.RemoveAll(dir)

	w := newWorkload(o.workload, o.size, o.seed, dir)
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		if err := w.setup(ctx); err != nil {
			return result{}, inf, fmt.Errorf("set-up: %w", err)
		}
		inf.SetupS = append(inf.SetupS, time.Since(t0).Seconds())
	}
	window := time.Duration(o.seconds * float64(time.Second))

	runtime.GC()
	m, err := measure(ctx, w, window, nil)
	if err != nil {
		return result{}, inf, err
	}
	e2e := m.endToEnd(median(inf.SetupS))
	inf.CSVSHA256 = m.digest
	inf.Passes, inf.PassS, inf.Ops, inf.MeasuredS = m.passes, m.passS, len(m.latMS), m.wall.Seconds()
	if len(m.latMS) >= 100 {
		p90 := percentile(m.latMS, 0.9)
		inf.OpMSP90 = &p90
	}
	if m.archiveBytes > 0 {
		bpe := float64(m.archiveBytes) / float64(m.events)
		inf.ArchiveBytesPerEvent = &bpe
	}
	if m.serve != nil {
		lag := m.serve.genLagMSMax
		inf.GenLagMSMax = &lag
	}
	inf.PeakRSSMiB = peakRSSMiB()
	inf.Failures = m.failures
	res := result{Correct: m.failed == 0, Attempted: len(m.latMS), Failed: m.failed, Metrics: e2e}
	if !o.trace {
		return res, inf, nil
	}

	inf.Untraced = e2e
	t := newTracer()
	runtime.GC()
	mt, err := measure(ctx, w, window, t)
	if err != nil {
		return result{}, inf, err
	}
	spans := t.snapshot()
	inf.SpansFile = filepath.Join(o.work, fmt.Sprintf("spans-%s-seed%d.jsonl", o.workload, o.seed))
	if err := writeSpans(inf.SpansFile, spans); err != nil {
		return result{}, inf, err
	}
	inf.Failures = append(inf.Failures, mt.failures...)
	res.Attempted += len(mt.latMS)
	res.Failed += mt.failed
	if mt.digest != m.digest {
		inf.Failures = append(inf.Failures, fmt.Sprintf("traced result digest %s differs from untraced %s", mt.digest, m.digest))
		res.Failed += len(mt.latMS) - mt.failed
	}
	res.Correct = res.Failed == 0
	res.Metrics = perLayer(t, spans, m, mt)
	return res, inf, nil
}

// sourceDigest hashes the repository's Go sources and module files, so a
// result names the exact code it measured even without version control.
func sourceDigest(root string) (string, error) {
	var paths []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") || d.Name() == "go.mod" {
			paths = append(paths, path)
		}
		return nil
	})
	if err != nil {
		return "", fmt.Errorf("source digest: %w", err)
	}
	if len(paths) == 0 {
		return "", errors.New("source digest: no Go sources under " + root)
	}
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return "", fmt.Errorf("source digest: %w", err)
		}
		rel, _ := filepath.Rel(root, p)
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(rel), len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// peakRSSMiB is the process's peak resident set size.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
