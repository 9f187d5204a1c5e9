package trace

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"flag"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"
)

var updateTestdata = flag.Bool("update", false, "rewrite testdata/footer-claim.anctr")

// withFooter returns head (the archive up to its footer offset) closed
// by a footer frame holding payload and the trailer.
func withFooter(t *testing.T, head, payload []byte) []byte {
	t.Helper()
	var comp bytes.Buffer
	fw, err := flate.NewWriter(&comp, flate.BestSpeed)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fw.Write(payload); err != nil {
		t.Fatal(err)
	}
	if err := fw.Close(); err != nil {
		t.Fatal(err)
	}
	out := append([]byte(nil), head...)
	out = binary.AppendUvarint(out, uint64(len(payload)))
	out = binary.AppendUvarint(out, uint64(comp.Len()))
	out = append(out, comp.Bytes()...)
	out = binary.LittleEndian.AppendUint64(out, uint64(len(head)))
	return append(out, binaryMagicV2[:]...)
}

// footerPayload encodes r's dictionary and rank index the way
// StreamWriter.Close lays them out.
func footerPayload(r *Reader) []byte {
	sorted := append([]string(nil), r.keys...)
	sort.Strings(sorted)
	pos := make(map[string]int, len(sorted))
	var p []byte
	p = binary.AppendUvarint(p, uint64(len(sorted)))
	prev := ""
	for i, k := range sorted {
		pos[k] = i
		n := commonPrefixLen(prev, k)
		p = binary.AppendUvarint(p, uint64(n))
		p = binary.AppendUvarint(p, uint64(len(k)-n))
		p = append(p, k[n:]...)
		prev = k
	}
	for _, k := range r.keys {
		p = binary.AppendUvarint(p, uint64(pos[k]))
	}
	p = binary.AppendUvarint(p, uint64(len(r.ranks)))
	for _, ri := range r.ranks {
		p = binary.AppendUvarint(p, uint64(ri.events))
		p = binary.AppendUvarint(p, uint64(ri.sends))
		p = binary.AppendUvarint(p, uint64(ri.recvs))
		p = binary.AppendVarint(p, ri.maxSendID)
		p = binary.AppendUvarint(p, uint64(len(ri.segs)))
		for _, s := range ri.segs {
			p = binary.AppendUvarint(p, uint64(s.off))
			p = binary.AppendUvarint(p, uint64(s.count))
		}
	}
	return p
}

// claimFooter returns archive with its footer re-encoded so that rank 0
// claims events events, its last segment absorbing the difference: a
// footer consistent in itself, whose claim the data section may not
// back.
func claimFooter(t *testing.T, archive []byte, events int) []byte {
	t.Helper()
	r, err := NewReader(bytes.NewReader(archive), int64(len(archive)))
	if err != nil {
		t.Fatal(err)
	}
	ri := &r.ranks[0]
	ri.segs[len(ri.segs)-1].count += events - ri.events
	ri.events = events
	return withFooter(t, archive[:r.footerOff], footerPayload(r))
}

// openAllocs opens data and reports how many bytes NewReader allocated
// and its error.
func openAllocs(data []byte) (uint64, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := NewReader(bytes.NewReader(data), int64(len(data)))
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc, err
}

// TestNewReaderRejectsFooterClaimBeyondData pins the bound on footer
// claims: consumers size their arrays from the footer's counts before
// decoding an event, so NewReader must reject a footer claiming more
// events than the data section can hold, and must do so without an
// allocation sized by the claim. The hostile archive is also committed
// as testdata/footer-claim.anctr, a FuzzArchiveConsumers seed;
// regenerate it with `go test ./internal/trace -run FooterClaim -update`.
func TestNewReaderRejectsFooterClaimBeyondData(t *testing.T) {
	tr := interleavedTrace(2, 40)
	var buf bytes.Buffer
	if err := tr.WriteBinaryV2(&buf); err != nil {
		t.Fatal(err)
	}

	// The re-encoding is faithful: an honest claim decodes to the trace.
	honest := claimFooter(t, buf.Bytes(), 40)
	r, err := NewReader(bytes.NewReader(honest), int64(len(honest)))
	if err != nil {
		t.Fatalf("honest re-encoded footer rejected: %v", err)
	}
	if got, err := r.ToTrace(); err != nil || got.Hash() != tr.Hash() {
		t.Fatalf("honest re-encoded footer decodes to a different trace (err %v)", err)
	}

	hostile := claimFooter(t, buf.Bytes(), 1<<30)
	path := filepath.Join("testdata", "footer-claim.anctr")
	if *updateTestdata {
		if err := os.WriteFile(path, hostile, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	committed, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	for name, data := range map[string][]byte{"built": hostile, "committed": committed} {
		grew, err := openAllocs(data)
		if err == nil || !strings.Contains(err.Error(), "footer claims 1073741824 events") {
			t.Errorf("%s: footer claiming 2^30 events: got %v, want the claim rejected", name, err)
		}
		if grew > 1<<20 {
			t.Errorf("%s: rejecting the claim allocated %d bytes", name, grew)
		}
	}
}

// TestNewReaderBoundsFooterCounts pins that the footer counts which size
// an allocation before their entries are read — dictionary keys, ranks,
// a rank's segments — cannot exceed the footer payload that must hold
// those entries.
func TestNewReaderBoundsFooterCounts(t *testing.T) {
	var buf bytes.Buffer
	if err := interleavedTrace(2, 40).WriteBinaryV2(&buf); err != nil {
		t.Fatal(err)
	}
	archive := buf.Bytes()
	r, err := NewReader(bytes.NewReader(archive), int64(len(archive)))
	if err != nil {
		t.Fatal(err)
	}
	head := archive[:r.footerOff]

	// Meta of a trace declaring 2^22 ranks (the largest accepted).
	wide := append([]byte(nil), binaryMagicV2[:]...)
	wide = binary.AppendUvarint(wide, 0) // pattern ""
	for _, v := range []int64{1 << 22, 1, 1, 1} {
		wide = binary.AppendVarint(wide, v)
	}
	wide = append(wide, make([]byte, 8)...) // ND percent
	wide = binary.AppendVarint(wide, 0)     // seed

	// Rank 0 claims 10^5 events (within what the data section can
	// hold) in 10^5 segments, but the footer lists none.
	segs := binary.AppendUvarint(nil, 0) // no dictionary keys
	segs = binary.AppendUvarint(segs, 2)
	for _, v := range []uint64{100000, 0, 0} {
		segs = binary.AppendUvarint(segs, v)
	}
	segs = binary.AppendVarint(segs, -1)
	segs = binary.AppendUvarint(segs, 100000)

	cases := map[string][]byte{
		"dictionary": withFooter(t, head, binary.AppendUvarint(nil, 1<<22)),
		"ranks":      withFooter(t, wide, binary.AppendUvarint(binary.AppendUvarint(nil, 0), 1<<22)),
		"segments":   withFooter(t, head, segs),
	}
	for name, data := range cases {
		grew, err := openAllocs(data)
		if err == nil {
			t.Errorf("%s: accepted", name)
		}
		if grew > 1<<20 {
			t.Errorf("%s: rejecting the footer allocated %d bytes (%v)", name, grew, err)
		}
	}
}
