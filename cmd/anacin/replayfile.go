package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"github.com/anacin-go/anacinx/internal/analysis"
	"github.com/anacin-go/anacinx/internal/core"
	"github.com/anacin-go/anacinx/internal/graph"
	"github.com/anacin-go/anacinx/internal/kernel"
	"github.com/anacin-go/anacinx/internal/trace"
)

// traceArtifact is one stored trace reduced to what replay needs: its
// embedding, structure hash, and enough metadata to label output.
type traceArtifact struct {
	Path      string
	Meta      trace.Meta
	Events    int
	OrderHash uint64
	Features  kernel.FeatureVector
}

// expandTracePaths resolves each argument to trace files: directories
// expand to their *.anctr entries (sorted), files stand for themselves.
// Campaign archives nest one directory per cell fingerprint, so a
// directory whose entries are directories expands one level further.
func expandTracePaths(args []string) ([]string, error) {
	var out []string
	var walk func(path string, depth int) error
	walk = func(path string, depth int) error {
		info, err := os.Stat(path)
		if err != nil {
			return err
		}
		if !info.IsDir() {
			out = append(out, path)
			return nil
		}
		entries, err := os.ReadDir(path)
		if err != nil {
			return err
		}
		names := make([]string, 0, len(entries))
		for _, e := range entries {
			names = append(names, e.Name())
		}
		sort.Strings(names)
		for _, name := range names {
			sub := filepath.Join(path, name)
			if fi, err := os.Stat(sub); err == nil && fi.IsDir() {
				if depth < 1 {
					if err := walk(sub, depth+1); err != nil {
						return err
					}
				}
				continue
			}
			if filepath.Ext(name) == ".anctr" {
				out = append(out, sub)
			}
		}
		return nil
	}
	for _, a := range args {
		if err := walk(a, 0); err != nil {
			return nil, err
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no trace files found under %v", args)
	}
	return out, nil
}

// loadArtifact embeds one stored trace under k. v2 files build their
// graph straight from the archive's per-rank cursors, without
// materializing the trace; v1 binary and JSON traces materialize and
// build through graph.FromTrace. Both feed the same graph build and
// kernel, so the features are identical by construction.
func loadArtifact(k kernel.Kernel, path string) (traceArtifact, error) {
	art := traceArtifact{Path: path}
	if r, err := trace.OpenReader(path); err == nil {
		defer r.Close()
		art.Meta = r.Meta()
		art.Events = r.NumEvents()
		if art.Features, err = kernel.FeaturesFromReader(k, r); err != nil {
			return art, fmt.Errorf("%s: %w", path, err)
		}
		if art.OrderHash, err = r.OrderHash(); err != nil {
			return art, fmt.Errorf("%s: %w", path, err)
		}
		return art, nil
	}
	tr, err := trace.LoadBinaryFile(path)
	if err != nil {
		// Not a binary trace at all; try the JSON format `anacin run
		// -trace` writes.
		var jerr error
		if tr, jerr = trace.LoadFile(path); jerr != nil {
			return art, fmt.Errorf("%s: %w", path, err)
		}
	}
	g, err := graph.FromTrace(tr)
	if err != nil {
		return art, fmt.Errorf("%s: %w", path, err)
	}
	art.Meta = tr.Meta
	art.Events = tr.NumEvents()
	art.OrderHash = tr.OrderHash()
	art.Features = k.Features(g)
	return art, nil
}

// replayArtifacts is `anacin replay <trace-file-or-dir>...`: re-derive
// embeddings, structure hashes, and distance statistics from stored
// traces. The derived values are byte-identical to what the live
// pipeline produced when the traces were recorded (pinned by tests),
// so a stored campaign can be re-analyzed — under the same or a
// different kernel — without re-simulating.
func replayArtifacts(args []string, kernSpec string, raw bool) error {
	k, err := core.ParseKernel(kernSpec)
	if err != nil {
		return err
	}
	paths, err := expandTracePaths(args)
	if err != nil {
		return err
	}
	arts := make([]traceArtifact, len(paths))
	for i, p := range paths {
		if arts[i], err = loadArtifact(k, p); err != nil {
			return err
		}
	}
	fmt.Printf("replay: %d trace(s), kernel %s\n", len(arts), k.Name())
	distinct := make(map[uint64]bool)
	feats := make([]kernel.FeatureVector, len(arts))
	for i, a := range arts {
		distinct[a.OrderHash] = true
		feats[i] = a.Features
		fmt.Printf("  %s: %s procs=%d iters=%d nd=%g%% seed=%d events=%d order_hash=%x\n",
			a.Path, a.Meta.Pattern, a.Meta.Procs, a.Meta.Iterations,
			a.Meta.NDPercent, a.Meta.Seed, a.Events, a.OrderHash)
	}
	fmt.Printf("distinct communication structures: %d of %d traces\n", len(distinct), len(arts))
	if len(arts) < 2 {
		return nil
	}
	dists := kernel.MatrixFromFeatures(k.Name(), feats).PairwiseDistances()
	s := analysis.Summarize(dists)
	fmt.Printf("distances: n=%d min=%.6g median=%.6g max=%.6g mean=%.6g\n",
		s.N, s.Min, s.Median, s.Max, s.Mean)
	if raw {
		for i, d := range dists {
			fmt.Printf("  pair %3d: %.6g\n", i, d)
		}
	}
	return nil
}

// cmdInspect reports a stored trace's format version, metadata, and —
// for v2 files — the footer index statistics, all without decoding the
// event streams.
func cmdInspect(args []string) error {
	fs := flag.NewFlagSet("inspect", flag.ExitOnError)
	fs.Usage = func() {
		fmt.Fprint(fs.Output(), `usage: anacin inspect [-ranks] <trace-file>

Prints a stored trace's format version and metadata. For v2 files
(ANCNTR02) the report comes from the footer index alone — no event
decoding — and includes section sizes and segment statistics; -ranks
adds a per-rank event/send/recv table.
`)
		fs.PrintDefaults()
	}
	ranks := fs.Bool("ranks", false, "per-rank event counts (v2 only)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		fs.Usage()
		return fmt.Errorf("need exactly one trace file")
	}
	path := fs.Arg(0)

	if r, err := trace.OpenReader(path); err == nil {
		defer r.Close()
		meta := r.Meta()
		st := r.Stats()
		fmt.Printf("%s: binary trace v2 (ANCNTR02)\n", path)
		printMeta(meta)
		fmt.Printf("events=%d sends=%d recvs=%d callstacks=%d\n",
			st.Events, st.Sends, st.Recvs, st.DictEntries)
		fmt.Printf("segments=%d max_segment_events=%d\n", st.Segments, st.MaxSegmentEvents)
		fmt.Printf("bytes: file=%d data=%d footer=%d (%.2f bytes/event)\n",
			st.FileBytes, st.DataBytes, st.FooterBytes,
			float64(st.FileBytes)/float64(max(st.Events, 1)))
		if *ranks {
			for rk := 0; rk < r.Procs(); rk++ {
				ev, sends, recvs, _ := r.RankCounts(rk)
				fmt.Printf("  rank %3d: events=%d sends=%d recvs=%d\n", rk, ev, sends, recvs)
			}
		}
		return nil
	}

	tr, err := trace.LoadBinaryFile(path)
	version := "binary trace v1 (ANCNTR01)"
	if err != nil {
		var jerr error
		if tr, jerr = trace.LoadFile(path); jerr != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		version = "JSON trace"
	}
	fmt.Printf("%s: %s\n", path, version)
	printMeta(tr.Meta)
	fmt.Printf("events=%d callstacks=%d\n", tr.NumEvents(), len(tr.Callstacks()))
	if *ranks {
		for rk, evs := range tr.Events {
			sends, recvs := 0, 0
			for i := range evs {
				if evs[i].MsgID == trace.NoMsg {
					continue
				}
				switch {
				case evs[i].Kind.IsSend():
					sends++
				case evs[i].Kind.IsReceive():
					recvs++
				}
			}
			fmt.Printf("  rank %3d: events=%d sends=%d recvs=%d\n", rk, len(evs), sends, recvs)
		}
	}
	return nil
}

func printMeta(m trace.Meta) {
	fmt.Printf("pattern=%s procs=%d nodes=%d iters=%d msgsize=%d nd=%g%% seed=%d\n",
		m.Pattern, m.Procs, m.Nodes, m.Iterations, m.MsgSize, m.NDPercent, m.Seed)
}
