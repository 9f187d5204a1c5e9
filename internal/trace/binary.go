package trace

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"strings"

	"github.com/anacin-go/anacinx/internal/vtime"
)

// splitCallstackKey inverts Event.CallstackKey for non-"(unknown)" keys.
func splitCallstackKey(key string) []string { return strings.Split(key, ";") }

func vtimeFromInt(v int64) vtime.Time { return vtime.Time(v) }

// Compact binary trace format. JSON (io.go) is the interchange format;
// the binary format is ~10x smaller and faster for experiment campaigns
// that archive hundreds of runs. Layout: a magic header, the meta
// block, then per rank a varint event count followed by varint-encoded
// event fields. Callstacks are string-table encoded: each distinct
// call-path is written once and referenced by index thereafter.

// binaryMagic identifies the format and its version.
var binaryMagic = [8]byte{'A', 'N', 'C', 'N', 'T', 'R', '0', '1'}

// WriteBinary serializes the trace in the compact binary format.
func (t *Trace) WriteBinary(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(binaryMagic[:]); err != nil {
		return err
	}
	var scratch [binary.MaxVarintLen64]byte
	writeVarint := func(v int64) error {
		n := binary.PutVarint(scratch[:], v)
		_, err := bw.Write(scratch[:n])
		return err
	}
	writeString := func(s string) error {
		if err := writeVarint(int64(len(s))); err != nil {
			return err
		}
		_, err := bw.WriteString(s)
		return err
	}

	// Meta.
	if err := writeString(t.Meta.Pattern); err != nil {
		return err
	}
	// NDPercent is rounded, not truncated, to micro-percent: truncation
	// broke round-tripping of values like 0.3 whose nearest float64 sits
	// just below an exact micro-percent multiple (0.3e6 evaluates to
	// 299999.99999999994, which int64() floored to 299999). v2 stores the
	// exact bit pattern instead (see binaryv2.go).
	for _, v := range []int64{
		int64(t.Meta.Procs), int64(t.Meta.Nodes), int64(t.Meta.Iterations),
		int64(t.Meta.MsgSize), int64(math.Round(t.Meta.NDPercent * 1e6)), t.Meta.Seed,
	} {
		if err := writeVarint(v); err != nil {
			return err
		}
	}

	// Callstack string table.
	table := make(map[string]int64)
	keys := t.Callstacks()
	if err := writeVarint(int64(len(keys))); err != nil {
		return err
	}
	for i, k := range keys {
		table[k] = int64(i)
		if err := writeString(k); err != nil {
			return err
		}
	}

	// Events.
	for _, evs := range t.Events {
		if err := writeVarint(int64(len(evs))); err != nil {
			return err
		}
		for i := range evs {
			e := &evs[i]
			for _, v := range []int64{
				int64(e.Kind), int64(e.Peer), int64(e.Tag), int64(e.Size),
				e.MsgID, int64(e.ChanSeq), int64(e.Time), e.Lamport,
				table[e.CallstackKey()],
			} {
				if err := writeVarint(v); err != nil {
					return err
				}
			}
		}
	}
	return bw.Flush()
}

// unknownMagicError explains a header that is neither v1 nor v2,
// distinguishing an unsupported version of this format from a file that
// is not a binary trace at all.
func unknownMagicError(magic [8]byte) error {
	if bytes.HasPrefix(magic[:], []byte("ANCNTR")) {
		return fmt.Errorf("trace: unsupported binary trace version %q (supported: %q, %q)",
			magic[6:], binaryMagic[6:], binaryMagicV2[6:])
	}
	return fmt.Errorf("trace: not a binary trace (magic %q)", magic[:])
}

// ReadBinary parses a binary trace and validates it. The format version
// is auto-detected from the magic header: v1 ("ANCNTR01") decodes
// streamingly; v2 ("ANCNTR02") is buffered in full first, since its
// index lives at the end of the file (prefer OpenReader or
// LoadBinaryFile for seekable v2 sources). Unknown versions return a
// clear error.
func ReadBinary(r io.Reader) (*Trace, error) {
	br := bufio.NewReader(r)
	var magic [8]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("trace: binary header: %w", err)
	}
	switch magic {
	case binaryMagic:
		return readBinaryV1(br)
	case binaryMagicV2:
		rest, err := io.ReadAll(br)
		if err != nil {
			return nil, fmt.Errorf("trace: v2 body: %w", err)
		}
		buf := make([]byte, 0, 8+len(rest))
		buf = append(buf, magic[:]...)
		buf = append(buf, rest...)
		rd, err := NewReader(bytes.NewReader(buf), int64(len(buf)))
		if err != nil {
			return nil, err
		}
		return rd.ToTrace()
	default:
		return nil, unknownMagicError(magic)
	}
}

// readBinaryV1 decodes the v1 body following the magic header.
func readBinaryV1(br *bufio.Reader) (*Trace, error) {
	readVarint := func() (int64, error) { return binary.ReadVarint(br) }
	readString := func() (string, error) {
		n, err := readVarint()
		if err != nil {
			return "", err
		}
		if n < 0 || n > 1<<20 {
			return "", fmt.Errorf("trace: unreasonable string length %d", n)
		}
		buf := make([]byte, n)
		if _, err := io.ReadFull(br, buf); err != nil {
			return "", err
		}
		return string(buf), nil
	}

	var meta Meta
	var err error
	if meta.Pattern, err = readString(); err != nil {
		return nil, err
	}
	ints := make([]int64, 6)
	for i := range ints {
		if ints[i], err = readVarint(); err != nil {
			return nil, err
		}
	}
	meta.Procs = int(ints[0])
	meta.Nodes = int(ints[1])
	meta.Iterations = int(ints[2])
	meta.MsgSize = int(ints[3])
	meta.NDPercent = float64(ints[4]) / 1e6
	meta.Seed = ints[5]
	if meta.Procs < 0 || meta.Procs > 1<<22 {
		return nil, fmt.Errorf("trace: unreasonable proc count %d", meta.Procs)
	}

	nKeys, err := readVarint()
	if err != nil {
		return nil, err
	}
	if nKeys < 0 || nKeys > 1<<22 {
		return nil, fmt.Errorf("trace: unreasonable callstack table size %d", nKeys)
	}
	keys := make([]string, nKeys)
	stacks := make([][]string, nKeys)
	for i := range keys {
		if keys[i], err = readString(); err != nil {
			return nil, err
		}
		if keys[i] != "(unknown)" {
			stacks[i] = splitCallstackKey(keys[i])
		}
	}

	t := New(meta)
	for rank := 0; rank < meta.Procs; rank++ {
		n, err := readVarint()
		if err != nil {
			return nil, err
		}
		if n < 0 || n > 1<<30 {
			return nil, fmt.Errorf("trace: unreasonable event count %d", n)
		}
		for i := int64(0); i < n; i++ {
			vals := make([]int64, 9)
			for j := range vals {
				if vals[j], err = readVarint(); err != nil {
					return nil, err
				}
			}
			stackIdx := vals[8]
			if stackIdx < 0 || stackIdx >= nKeys {
				return nil, fmt.Errorf("trace: callstack index %d out of table", stackIdx)
			}
			ev := Event{
				Rank:      rank,
				Kind:      EventKind(vals[0]),
				Peer:      int(vals[1]),
				Tag:       int(vals[2]),
				Size:      int(vals[3]),
				MsgID:     vals[4],
				ChanSeq:   int(vals[5]),
				Time:      vtimeFromInt(vals[6]),
				Lamport:   vals[7],
				Callstack: stacks[stackIdx],
			}
			if ev.Callstack != nil {
				// The string table already holds the joined key; cache
				// it so re-serialization and graph building skip the
				// per-event join.
				ev.ckey = keys[stackIdx]
			}
			t.Append(ev)
		}
	}
	if err := t.Validate(); err != nil {
		return nil, fmt.Errorf("trace: binary trace invalid: %w", err)
	}
	return t, nil
}

// LoadBinaryFile reads a binary trace (v1 or v2, auto-detected) from
// path. v2 files are decoded through their footer index rather than
// buffered whole.
func LoadBinaryFile(path string) (*Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var magic [8]byte
	if _, err := io.ReadFull(f, magic[:]); err != nil {
		return nil, fmt.Errorf("trace: binary header: %w", err)
	}
	if magic == binaryMagicV2 {
		st, err := f.Stat()
		if err != nil {
			return nil, err
		}
		rd, err := NewReader(f, st.Size())
		if err != nil {
			return nil, err
		}
		return rd.ToTrace()
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return nil, err
	}
	return ReadBinary(f)
}
