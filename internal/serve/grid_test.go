package serve

import (
	"bytes"
	"testing"
)

// FuzzGridRequest feeds arbitrary bodies through the submit handler's
// decode and grid validation. Bodies are untrusted input: any error is
// fine, but nothing may panic, and every accepted grid must respect the
// server's limits. The seeds are the JSON bodies the server tests send.
func FuzzGridRequest(f *testing.F) {
	f.Add([]byte(smallBody))
	for _, tc := range submitRejections {
		f.Add([]byte(tc.body))
	}
	const maxCells, maxRuns = 8, 10
	f.Fuzz(func(t *testing.T, body []byte) {
		req, err := decodeGridRequest(bytes.NewReader(body))
		if err != nil {
			return
		}
		g, err := req.grid(maxCells, maxRuns)
		if err != nil {
			return
		}
		if n := len(g.CellSpecs()); n > maxCells {
			t.Errorf("accepted a grid of %d cells, limit %d", n, maxCells)
		}
		if g.Runs < 1 || g.Runs > maxRuns {
			t.Errorf("accepted runs = %d, limit %d", g.Runs, maxRuns)
		}
	})
}

// TestGridRejectsCellCountOverflow pins that dimension lists whose
// product overflows int are rejected rather than wrapping to an
// admissible cell count. Four lists of 2^16 values fit in a body well
// under DefaultMaxBodyBytes.
func TestGridRejectsCellCountOverflow(t *testing.T) {
	const n = 1 << 16
	req := GridRequest{
		Patterns:   []string{"message_race"},
		Procs:      make([]int, n),
		Iterations: make([]int, n),
		Nodes:      make([]int, n),
		NDPercents: make([]float64, n),
	}
	for i := 0; i < n; i++ {
		req.Procs[i], req.Iterations[i], req.Nodes[i] = 4, 1, 1
	}
	if _, err := req.grid(DefaultMaxCells, DefaultMaxRuns); err == nil {
		t.Fatal("accepted a grid of 2^64 cells")
	}
}
