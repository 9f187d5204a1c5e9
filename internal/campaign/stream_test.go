package campaign

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/anacin-go/anacinx/internal/trace"
)

// TestRunCellStreamMatchesRunCell pins the campaign-level equivalence:
// an archived cell carries exactly the summary and distinct-structure
// count of the in-memory one, and archives its runs under the cell's
// fingerprint.
func TestRunCellStreamMatchesRunCell(t *testing.T) {
	g, err := smallGrid().Normalized()
	if err != nil {
		t.Fatal(err)
	}
	specs := g.CellSpecs()
	dir := t.TempDir()
	for _, spec := range specs[:2] {
		want := RunCell(context.Background(), g, spec, 0)
		got := RunCellStream(context.Background(), g, spec, 0, dir, trace.CodecOptions{})
		if !reflect.DeepEqual(got, want) {
			t.Errorf("spec %+v: streamed cell %+v, want %+v", spec, got, want)
		}

		cellDir := filepath.Join(dir, g.CellFingerprint(spec).String())
		entries, err := os.ReadDir(cellDir)
		if err != nil {
			t.Fatalf("spec %+v: archive dir: %v", spec, err)
		}
		if len(entries) != g.Runs {
			t.Errorf("spec %+v: archived %d traces, want %d", spec, len(entries), g.Runs)
		}
		for i := 0; i < g.Runs; i++ {
			p := filepath.Join(cellDir, fmt.Sprintf("run-%d.anctr", i))
			if _, err := os.Stat(p); err != nil {
				t.Errorf("spec %+v: missing archived trace: %v", spec, err)
			}
		}
	}
}

// TestRunnerStreamMatchesDefault pins that Runner{ArchiveDir} produces
// a Result deep-equal to the default Runner — archiving changes where
// traces go, never what a cell measures — and lays out one directory
// per cell fingerprint.
func TestRunnerStreamMatchesDefault(t *testing.T) {
	g := smallGrid()
	want, err := (&Runner{}).Run(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	archived, err := (&Runner{ArchiveDir: dir}).Run(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(archived, want) {
		t.Errorf("archived result differs from the default result")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if wantCells := g.Cells(); len(entries) != wantCells {
		t.Errorf("archive has %d cell dirs, want %d", len(entries), wantCells)
	}
}
