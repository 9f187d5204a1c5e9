package serve

import (
	"context"
	"sync"
	"testing"

	"github.com/anacin-go/anacinx/internal/campaign"
	"github.com/anacin-go/anacinx/internal/trace"
)

// recordArchiveDirs swaps in a cell executor that records the archive
// directory of every cell it runs.
func recordArchiveDirs(t *testing.T) func() []string {
	var (
		mu   sync.Mutex
		dirs []string
	)
	swapRunCell(t, func(_ context.Context, g campaign.Grid, spec campaign.CellSpec, _ int, dir string, _ trace.CodecOptions) campaign.Cell {
		mu.Lock()
		dirs = append(dirs, dir)
		mu.Unlock()
		return fakeCell(g, spec)
	})
	return func() []string {
		mu.Lock()
		defer mu.Unlock()
		return append([]string(nil), dirs...)
	}
}

// TestArchiveDirRoutesCellsThroughStreaming pins the serve wiring: a
// server configured with ArchiveDir passes the configured directory,
// as given, to the cell executor for every cell.
func TestArchiveDirRoutesCellsThroughStreaming(t *testing.T) {
	dirs := recordArchiveDirs(t)
	dir := t.TempDir()
	_, ts := newTestServer(t, Config{MaxCells: 8, MaxRuns: 10, ArchiveDir: dir})
	v := submit(t, ts, smallBody)
	waitStatus(t, ts, v.ID, StatusDone)

	got := dirs()
	if len(got) != v.Total {
		t.Errorf("executor ran %d cells, want %d", len(got), v.Total)
	}
	for _, d := range got {
		if d != dir {
			t.Errorf("executor got archive dir %q, want %q", d, dir)
		}
	}
}

// TestNoArchiveDirKeepsMaterializingPath pins the default: without
// ArchiveDir every cell runs with an empty archive directory, so its
// runs are traced in memory and nothing is written to disk.
func TestNoArchiveDirKeepsMaterializingPath(t *testing.T) {
	dirs := recordArchiveDirs(t)
	_, ts := newTestServer(t, Config{MaxCells: 8, MaxRuns: 10})
	v := submit(t, ts, smallBody)
	waitStatus(t, ts, v.ID, StatusDone)

	got := dirs()
	if len(got) != v.Total {
		t.Errorf("executor ran %d cells, want %d", len(got), v.Total)
	}
	for _, d := range got {
		if d != "" {
			t.Errorf("executor got archive dir %q, want none", d)
		}
	}
}
