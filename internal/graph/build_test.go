package graph

import (
	"bytes"
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/anacin-go/anacinx/internal/patterns"
	"github.com/anacin-go/anacinx/internal/sim"
	"github.com/anacin-go/anacinx/internal/trace"
	"github.com/anacin-go/anacinx/internal/vtime"
)

// iterRaceTrace simulates a message-race pattern and returns its trace:
// every nonzero rank sends to rank 0, which receives with AnySource —
// fan-in, wildcard matching, and receives that precede their senders in
// rank-major order.
func iterRaceTrace(t *testing.T, procs, iters int, nd float64) *trace.Trace {
	t.Helper()
	cfg := sim.DefaultConfig(procs, 42)
	cfg.Nodes = 2
	cfg.NDPercent = nd
	tr, _, err := sim.Run(cfg, trace.Meta{Pattern: "race"}, func(r *sim.Rank) {
		if r.Rank() == 0 {
			for i := 0; i < iters*(r.Size()-1); i++ {
				r.Recv(sim.AnySource, sim.AnyTag)
			}
			return
		}
		for i := 0; i < iters; i++ {
			r.SendSize(0, i, 64)
		}
	})
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
	return tr
}

// collectiveTrace exercises NoMsg collective events and internal
// (untraced) plumbing, so traced MsgIDs are a sparse subset of the
// simulator's id space.
func collectiveTrace(t *testing.T, procs int) *trace.Trace {
	t.Helper()
	cfg := sim.DefaultConfig(procs, 7)
	cfg.NDPercent = 10
	tr, _, err := sim.Run(cfg, trace.Meta{Pattern: "coll"}, func(r *sim.Rank) {
		for i := 0; i < 3; i++ {
			if r.Rank() != 0 {
				r.SendSize(0, 1, 32)
			} else {
				for p := 1; p < r.Size(); p++ {
					r.Recv(sim.AnySource, 1)
				}
			}
			r.Barrier()
			r.Allreduce([]byte{byte(r.Rank())}, func(a, b []byte) []byte { return a })
		}
	})
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
	return tr
}

// sparseTrace has one message whose id is far beyond any dense join
// table, so the build must join it through the map form.
func sparseTrace() *trace.Trace {
	tr := trace.New(trace.Meta{Pattern: "sparse", Procs: 2})
	tr.Append(trace.Event{Rank: 0, Kind: trace.KindSend, Peer: 1, MsgID: 1 << 40,
		Time: vtime.Time(1), Lamport: 1})
	tr.Append(trace.Event{Rank: 1, Kind: trace.KindRecv, Peer: 0, MsgID: 1 << 40,
		Time: vtime.Time(2), Lamport: 2})
	return tr
}

// raceArchive is the v2 archive of a 4-rank message_race run at ND=100,
// the small archive the byte-flip test damages.
func raceArchive(t *testing.T) []byte {
	t.Helper()
	pat, err := patterns.ByName("message_race")
	if err != nil {
		t.Fatal(err)
	}
	params := patterns.Params{Procs: 4, Iterations: 1, MsgSize: 1}
	prog, err := pat.Program(params)
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.DefaultConfig(4, 1)
	cfg.NDPercent = 100
	tr, _, err := sim.Run(cfg, trace.Meta{Pattern: pat.Name(), Iterations: 1, MsgSize: 1}, sim.Adapt(prog))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.WriteBinaryV2(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// identityTraces are the traces every build must reproduce exactly: the
// simulated shapes, the scattered-id trace, and the simulator goldens.
func identityTraces(t *testing.T) map[string]*trace.Trace {
	t.Helper()
	traces := map[string]*trace.Trace{
		"race-16rank":   iterRaceTrace(t, 16, 8, 25),
		"race-64rank":   iterRaceTrace(t, 64, 4, 25),
		"coll-12rank":   collectiveTrace(t, 12),
		"empty-streams": trace.New(trace.Meta{Procs: 5}),
		"sparse-ids":    sparseTrace(),
	}
	goldens, err := filepath.Glob(filepath.Join("..", "sim", "testdata", "*.trace"))
	if err != nil || len(goldens) == 0 {
		t.Fatalf("golden traces: %v (%d found)", err, len(goldens))
	}
	for _, path := range goldens {
		tr, err := trace.LoadBinaryFile(path)
		if err != nil {
			t.Fatal(err)
		}
		traces[filepath.Base(path)] = tr
	}
	return traces
}

// readerFor encodes tr as a v2 binary trace and opens a Reader over it.
func readerFor(t *testing.T, tr *trace.Trace) *trace.Reader {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.WriteBinaryV2(&buf); err != nil {
		t.Fatal(err)
	}
	r, err := trace.NewReader(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// assertGraphsEqual compares every exported structural field.
func assertGraphsEqual(t *testing.T, want, got *Graph, label string) {
	t.Helper()
	if !reflect.DeepEqual(want.Nodes, got.Nodes) {
		t.Fatalf("%s: nodes differ", label)
	}
	if !reflect.DeepEqual(want.Edges, got.Edges) {
		t.Fatalf("%s: edges differ", label)
	}
	if !reflect.DeepEqual(want.Out, got.Out) {
		t.Fatalf("%s: out adjacency differs", label)
	}
	if !reflect.DeepEqual(want.In, got.In) {
		t.Fatalf("%s: in adjacency differs", label)
	}
	if want.Meta != got.Meta {
		t.Fatalf("%s: meta differs", label)
	}
}

// assertBuildMatchesOracle builds every identity trace from src(tr) at
// one, two and eight workers and compares each graph to the oracle's.
func assertBuildMatchesOracle(t *testing.T, src func(*trace.Trace) source) {
	for name, tr := range identityTraces(t) {
		want, err := fromTraceSeq(tr)
		if err != nil {
			t.Fatalf("%s: oracle build: %v", name, err)
		}
		s := src(tr)
		for _, workers := range []int{1, 2, 8} {
			label := fmt.Sprintf("%s workers=%d", name, workers)
			got, err := build(s, workers)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			assertGraphsEqual(t, want, got, label)
			if err := got.Validate(); err != nil {
				t.Fatalf("%s: graph invalid: %v", label, err)
			}
		}
	}
}

func TestParallelFromTraceMatchesSequential(t *testing.T) {
	assertBuildMatchesOracle(t, func(tr *trace.Trace) source { return source{tr: tr} })
}

func TestFromReaderMatchesFromTrace(t *testing.T) {
	assertBuildMatchesOracle(t, func(tr *trace.Trace) source { return source{r: readerFor(t, tr)} })
}

// A trace with sparse, scattered message ids joins through the map form
// of the join tables and still comes out identical, through both
// public entry points.
func TestFromReaderScatteredMsgIDFallback(t *testing.T) {
	tr := sparseTrace()
	want, err := fromTraceSeq(tr)
	if err != nil {
		t.Fatal(err)
	}
	got, err := FromReader(readerFor(t, tr))
	if err != nil {
		t.Fatal(err)
	}
	assertGraphsEqual(t, want, got, "sparse reader")
	if got, err = FromTrace(tr); err != nil {
		t.Fatal(err)
	}
	assertGraphsEqual(t, want, got, "sparse trace")
}

// The build must report invalid traces, not build garbage, at every
// worker count.
func TestParallelFromTraceRejectsInvalid(t *testing.T) {
	mk := func(mutate func(tr *trace.Trace)) *trace.Trace {
		tr := iterRaceTrace(t, 16, 4, 0)
		mutate(tr)
		return tr
	}
	// nth returns the index of rank's nth event of kind.
	nth := func(evs []trace.Event, kind trace.EventKind, n int) int {
		for i := range evs {
			if evs[i].Kind == kind {
				if n == 0 {
					return i
				}
				n--
			}
		}
		t.Fatalf("no %v number %d", kind, n)
		return -1
	}
	cases := map[string]struct {
		tr   *trace.Trace
		want string
	}{
		"lamport-regression": {mk(func(tr *trace.Trace) {
			tr.Events[3][1].Lamport = tr.Events[3][0].Lamport
		}), "lamport"},
		"sparse-seq": {mk(func(tr *trace.Trace) {
			tr.Events[2][1].Seq = 7
		}), "not dense"},
		"recv-without-send": {mk(func(tr *trace.Trace) {
			tr.Events[0][nth(tr.Events[0], trace.KindRecv, 0)].MsgID = 1 << 40
		}), "no send"},
		"invalid-kind": {mk(func(tr *trace.Trace) {
			tr.Events[5][1].Kind = 200
		}), "invalid kind"},
		"negative-send-id": {mk(func(tr *trace.Trace) {
			tr.Events[4][nth(tr.Events[4], trace.KindSend, 0)].MsgID = -7
		}), "negative msg id"},
		"sent-twice": {mk(func(tr *trace.Trace) {
			evs := tr.Events[1]
			evs[nth(evs, trace.KindSend, 1)].MsgID = evs[nth(evs, trace.KindSend, 0)].MsgID
		}), "sent twice"},
		"received-twice": {mk(func(tr *trace.Trace) {
			evs := tr.Events[0]
			evs[nth(evs, trace.KindRecv, 1)].MsgID = evs[nth(evs, trace.KindRecv, 0)].MsgID
		}), "received twice"},
	}
	for name, tc := range cases {
		for _, workers := range []int{1, 4} {
			_, err := build(source{tr: tc.tr}, workers)
			if err == nil {
				t.Errorf("%s workers=%d: build accepted an invalid trace", name, workers)
			} else if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%s workers=%d: error %q does not mention %q", name, workers, err, tc.want)
			}
		}
	}
}

func TestFromReaderRejectsInvalidStream(t *testing.T) {
	// The v2 codec happily serializes invalid traces (it does not
	// validate); FromReader must reject them during its decode pass.
	mk := func(mutate func(tr *trace.Trace)) *trace.Reader {
		tr := iterRaceTrace(t, 16, 4, 0)
		mutate(tr)
		return readerFor(t, tr)
	}
	cases := map[string]struct {
		r    *trace.Reader
		want string
	}{
		"lamport-regression": {mk(func(tr *trace.Trace) {
			tr.Events[3][1].Lamport = tr.Events[3][0].Lamport
		}), "lamport"},
		"recv-without-send": {mk(func(tr *trace.Trace) {
			for i := range tr.Events[0] {
				if tr.Events[0][i].Kind == trace.KindRecv {
					tr.Events[0][i].MsgID = 500
					break
				}
			}
		}), "no send"},
	}
	for name, tc := range cases {
		_, err := build(source{r: tc.r}, 4)
		if err == nil {
			t.Errorf("%s: streaming build accepted an invalid trace", name)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", name, err, tc.want)
		}
	}
}

// Every single-byte flip of a small archive must yield an error or the
// graph of the trace the damaged archive decodes to — never a panic.
// Flips that break a footer/stream agreement once indexed a send slot
// past the footer's maximum send id.
func TestFromReaderByteFlips(t *testing.T) {
	data := raceArchive(t)
	damaged := make([]byte, len(data))
	opened, built := 0, 0
	for off := range data {
		for _, mask := range []byte{0x01, 0x80} {
			copy(damaged, data)
			damaged[off] ^= mask
			r, err := trace.NewReader(bytes.NewReader(damaged), int64(len(damaged)))
			if err != nil {
				continue
			}
			opened++
			label := fmt.Sprintf("offset %d ^%#02x", off, mask)
			g, err := FromReader(r)
			if err != nil {
				continue
			}
			tr, err := r.ToTrace()
			if err != nil {
				t.Fatalf("%s: graph built from an archive that does not decode: %v", label, err)
			}
			want, err := fromTraceSeq(tr)
			if err != nil {
				t.Fatalf("%s: graph built from a trace the oracle rejects: %v", label, err)
			}
			assertGraphsEqual(t, want, g, label)
			built++
		}
	}
	// Most flips break the DEFLATE streams; the rest must reach the
	// builder, or the test proves nothing.
	t.Logf("%d-byte archive: %d flips opened, %d built", len(data), opened, built)
	if opened == 0 {
		t.Fatal("no damaged archive opened")
	}
}

// A panic inside a worker becomes that rank's error instead of killing
// the process.
func TestForEachRankRecoversPanics(t *testing.T) {
	for _, workers := range []int{1, 3} {
		b := &builder{errs: make([]error, 4)}
		err := b.forEachRank(workers, func(r int) error {
			if r == 2 {
				var s []int
				_ = s[r]
			}
			return nil
		})
		if err == nil || !strings.Contains(err.Error(), "rank 2") {
			t.Errorf("workers=%d: err = %v, want rank 2's recovered panic", workers, err)
		}
	}
}
