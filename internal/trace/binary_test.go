package trace

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"

	"github.com/anacin-go/anacinx/internal/vtime"
)

func TestBinaryRoundTrip(t *testing.T) {
	tr := buildValidTrace()
	var buf bytes.Buffer
	if err := tr.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Hash() != tr.Hash() {
		t.Error("binary round trip changed the trace hash")
	}
	if got.Meta != tr.Meta {
		t.Errorf("meta changed: %+v vs %+v", got.Meta, tr.Meta)
	}
}

func TestBinaryRoundTripPreservesCallstacks(t *testing.T) {
	tr := buildValidTrace()
	var buf bytes.Buffer
	if err := tr.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	want := tr.Events[1][1].CallstackKey()
	if k := got.Events[1][1].CallstackKey(); k != want {
		t.Errorf("callstack key %q, want %q", k, want)
	}
	// Events without callstacks stay empty.
	if len(got.Events[0][0].Callstack) != 0 {
		t.Errorf("init grew a callstack: %v", got.Events[0][0].Callstack)
	}
}

// writeV1File writes tr to path in the v1 binary format.
func writeV1File(t *testing.T, tr *Trace, path string) {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestBinaryFileRoundTrip(t *testing.T) {
	tr := buildValidTrace()
	path := filepath.Join(t.TempDir(), "trace.bin")
	writeV1File(t, tr, path)
	got, err := LoadBinaryFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Hash() != tr.Hash() {
		t.Error("binary file round trip changed the trace")
	}
}

func TestBinarySmallerThanJSON(t *testing.T) {
	tr := buildValidTrace()
	var jsonBuf, binBuf bytes.Buffer
	if err := tr.WriteJSON(&jsonBuf); err != nil {
		t.Fatal(err)
	}
	if err := tr.WriteBinary(&binBuf); err != nil {
		t.Fatal(err)
	}
	if binBuf.Len() >= jsonBuf.Len() {
		t.Errorf("binary (%d B) not smaller than JSON (%d B)", binBuf.Len(), jsonBuf.Len())
	}
}

func TestBinaryRejectsGarbage(t *testing.T) {
	if _, err := ReadBinary(bytes.NewBufferString("not a trace at all")); err == nil {
		t.Error("garbage magic accepted")
	}
	// Valid magic, truncated body.
	var buf bytes.Buffer
	buf.Write(binaryMagic[:])
	buf.WriteByte(5) // pattern length 5... then EOF (varint 5 is 0x0a... whatever, truncation)
	if _, err := ReadBinary(&buf); err == nil {
		t.Error("truncated body accepted")
	}
}

func TestBinaryRejectsCorruptTable(t *testing.T) {
	tr := buildValidTrace()
	var buf bytes.Buffer
	if err := tr.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	// Flip a byte near the end (event data) repeatedly until a decode
	// error or a hash change is observed; silent identical decode would
	// mean the format ignores content.
	raw := buf.Bytes()
	detected := false
	for i := len(raw) - 1; i > len(raw)-10 && i > 8; i-- {
		mut := append([]byte(nil), raw...)
		mut[i] ^= 0x7f
		got, err := ReadBinary(bytes.NewReader(mut))
		if err != nil || got.Hash() != tr.Hash() {
			detected = true
			break
		}
	}
	if !detected {
		t.Error("tail corruption never detected")
	}
}

// TestQuickBinaryRoundTripRandomTraces round-trips randomly generated
// (valid) traces through the binary codec.
func TestQuickBinaryRoundTripRandomTraces(t *testing.T) {
	f := func(seed int64, procsRaw, eventsRaw uint8) bool {
		rng := vtime.NewRNG(seed)
		procs := int(procsRaw)%5 + 1
		tr := New(Meta{Pattern: "fuzz", Procs: procs, Nodes: 1, Seed: seed})
		var msgID int64
		for rank := 0; rank < procs; rank++ {
			lamport := int64(0)
			clock := vtime.Time(0)
			n := int(eventsRaw) % 12
			for i := 0; i < n; i++ {
				lamport++
				clock = clock.Add(vtime.Duration(rng.Intn(1000) + 1))
				ev := Event{Rank: rank, Kind: KindSend, Peer: (rank + 1) % procs,
					Tag: rng.Intn(8), Size: rng.Intn(64), MsgID: msgID,
					ChanSeq: i, Time: clock, Lamport: lamport}
				if rng.Bernoulli(0.5) {
					ev.Callstack = []string{"a.b", "c.d"}
				}
				msgID++
				tr.Append(ev)
			}
		}
		var buf bytes.Buffer
		if err := tr.WriteBinary(&buf); err != nil {
			return false
		}
		got, err := ReadBinary(&buf)
		if err != nil {
			return false
		}
		return got.Hash() == tr.Hash()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestQuickBinaryNeverPanicsOnCorruption mutates valid encodings at
// random offsets: ReadBinary must return an error or a trace, never
// panic or hang.
func TestQuickBinaryNeverPanicsOnCorruption(t *testing.T) {
	base := buildValidTrace()
	var buf bytes.Buffer
	if err := base.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	f := func(seed int64, flips uint8) (ok bool) {
		defer func() {
			if recover() != nil {
				ok = false
			}
		}()
		rng := vtime.NewRNG(seed)
		mut := append([]byte(nil), raw...)
		for i := 0; i < int(flips)%8+1; i++ {
			mut[rng.Intn(len(mut))] ^= byte(rng.Intn(255) + 1)
		}
		_, _ = ReadBinary(bytes.NewReader(mut)) //nolint:errcheck // error or success both fine
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func BenchmarkBinaryWrite(b *testing.B) {
	tr := buildValidTrace()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := tr.WriteBinary(&buf); err != nil {
			b.Fatal(err)
		}
	}
}
