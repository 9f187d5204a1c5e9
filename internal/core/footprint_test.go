package core

import (
	"context"
	"testing"

	"github.com/anacin-go/anacinx/internal/trace"
)

// archiveFootprint archives one ring_halo run and returns its event
// count and its largest segment (a cursor decodes one segment of
// columns at a time).
func archiveFootprint(t *testing.T, iterations int) (events, maxSegment int) {
	t.Helper()
	e := DefaultExperiment("ring_halo", 8, 50)
	e.Iterations = iterations
	e.Runs = 1
	srs, err := e.ExecuteStreamContext(context.Background(), nil, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	r, err := trace.OpenReader(srs.TracePaths[0])
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	return r.NumEvents(), r.Stats().MaxSegmentEvents
}

// TestStreamPipelineFootprintFlat pins the archive side's memory
// contract: growing a balanced run 10x in iterations must not grow the
// encoder's or a cursor's working set. The simulator streams events
// into the v2 encoder, whose rank buffers flush every segment, and a
// reader cursor holds one decoded segment.
func TestStreamPipelineFootprintFlat(t *testing.T) {
	smallEvents, smallSeg := archiveFootprint(t, 4)
	bigEvents, bigSeg := archiveFootprint(t, 40)
	t.Logf("iters=4:  events=%d seg=%d", smallEvents, smallSeg)
	t.Logf("iters=40: events=%d seg=%d", bigEvents, bigSeg)

	if bigEvents < 8*smallEvents {
		t.Fatalf("10x iterations grew events only %dx (%d -> %d); workload not scaling",
			bigEvents/max(smallEvents, 1), smallEvents, bigEvents)
	}
	// A cursor's decode buffer is one segment of columns, capped by the
	// writer's flush threshold regardless of run length.
	if bigSeg > 1024 {
		t.Errorf("largest segment %d events exceeds the 1024-event flush threshold", bigSeg)
	}
}
