package kernel

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"github.com/anacin-go/anacinx/internal/patterns"
	"github.com/anacin-go/anacinx/internal/sim"
	"github.com/anacin-go/anacinx/internal/trace"
)

// FuzzArchiveConsumers feeds arbitrary bytes to everything that reads
// an archive: the Reader, the graph build and embedding behind
// FeaturesFromReader, and the order hash. Archives are untrusted input,
// so any error is fine and a panic is a failure. The seed corpus is the
// simulator's golden traces re-encoded as v2, a small message-race
// archive, and an archive whose footer claims more events than its
// data section can hold.
func FuzzArchiveConsumers(f *testing.F) {
	goldens, err := filepath.Glob(filepath.Join("..", "sim", "testdata", "*.trace"))
	if err != nil || len(goldens) == 0 {
		f.Fatalf("golden traces: %v (%d found)", err, len(goldens))
	}
	for _, path := range goldens {
		tr, err := trace.LoadBinaryFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(encodeV2(f, tr))
	}
	f.Add(encodeV2(f, raceTrace4(f)))
	claim, err := os.ReadFile(filepath.Join("..", "trace", "testdata", "footer-claim.anctr"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(claim)

	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := trace.NewReader(bytes.NewReader(data), int64(len(data)))
		if err != nil {
			return
		}
		FeaturesFromReader(NewWL(2), r)
		r.OrderHash()
	})
}

func encodeV2(tb testing.TB, tr *trace.Trace) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := tr.WriteBinaryV2(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// raceTrace4 runs the message_race pattern on 4 ranks at ND=100.
func raceTrace4(tb testing.TB) *trace.Trace {
	tb.Helper()
	pat, err := patterns.ByName("message_race")
	if err != nil {
		tb.Fatal(err)
	}
	prog, err := pat.Program(patterns.Params{Procs: 4, Iterations: 1, MsgSize: 1})
	if err != nil {
		tb.Fatal(err)
	}
	cfg := sim.DefaultConfig(4, 1)
	cfg.NDPercent = 100
	tr, _, err := sim.Run(cfg, trace.Meta{Pattern: pat.Name(), Iterations: 1, MsgSize: 1}, sim.Adapt(prog))
	if err != nil {
		tb.Fatal(err)
	}
	return tr
}
