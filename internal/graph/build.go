package graph

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"github.com/anacin-go/anacinx/internal/trace"
	"github.com/anacin-go/anacinx/internal/vtime"
)

// Trace→graph construction. Nodes are rank-major, program edges follow
// each rank's stream, and a message edge's slot is fixed by its
// receiving rank and receive ordinal, so per-rank counts fix the whole
// layout and workers fill disjoint ranges one rank at a time. The graph
// is the same at every worker count.
//
// Validation is folded into construction: stage A checks each rank's
// stream (the per-rank half of trace.Validate) and every id against the
// layout before indexing with it, so a damaged archive footer is an
// error, not an out-of-range write. Cross-rank send and receive
// uniqueness ride on the compare-and-swap slots that join messages.

// parallelMinEvents is the event count below which a build runs on one
// worker, where a worker pool's fork/join overhead does not pay off.
const parallelMinEvents = 1 << 14

// FromTrace builds the event graph of a trace, rejecting one that
// breaks trace.Validate's invariants. Nodes appear in rank-major,
// sequence order; program edges follow each rank's stream; message
// edges join each send to the receive that matched its message.
func FromTrace(tr *trace.Trace) (*Graph, error) {
	return build(source{tr: tr}, workersFor(tr.NumEvents()))
}

// FromReader builds the event graph of a v2 binary trace through its
// footer index, without materializing a *trace.Trace. The graph is
// identical to FromTrace(reader.ToTrace()); a damaged archive yields an
// error.
func FromReader(r *trace.Reader) (*Graph, error) {
	return build(source{r: r}, workersFor(r.NumEvents()))
}

func workersFor(events int) int {
	if events < parallelMinEvents {
		return 1
	}
	return runtime.GOMAXPROCS(0)
}

// source is what a build reads: a materialized trace or a v2 archive's
// reader, exactly one of them set. Either yields each rank's counts,
// which fix the layout before any event is read — from a counting pass
// over the trace, or from the archive's footer — and then the rank's
// events in sequence order, from the slice or from the rank's cursor.
type source struct {
	tr *trace.Trace
	r  *trace.Reader
}

// meta returns the run's meta and its rank count.
func (s source) meta() (trace.Meta, int) {
	if s.tr != nil {
		return s.tr.Meta, s.tr.Procs()
	}
	return s.r.Meta(), s.r.Procs()
}

func (s source) counts(rank int) rankCounts {
	if s.tr == nil {
		events, sends, recvs, maxSendID := s.r.RankCounts(rank)
		return rankCounts{events, sends, recvs, maxSendID}
	}
	evs := s.tr.Events[rank]
	c := rankCounts{events: len(evs), maxSendID: -1}
	for i := range evs {
		c.tally(&evs[i])
	}
	return c
}

// fill feeds rank's events to stage A in sequence order.
func (s source) fill(f *rankFill) error {
	if s.tr != nil {
		evs := s.tr.Events[f.rank]
		for i := range evs {
			if err := f.add(&evs[i]); err != nil {
				return err
			}
		}
		return nil
	}
	// Each rank is drained start to finish, so segment read-ahead
	// overlaps the next block's inflate with this block's fill whenever
	// a second core exists.
	c := s.r.Cursor(f.rank)
	if runtime.GOMAXPROCS(0) > 1 {
		c.EnableReadAhead()
	}
	var ev trace.Event
	for c.Next(&ev) {
		if err := f.add(&ev); err != nil {
			return err
		}
	}
	return c.Err()
}

// rankCounts summarizes one rank's stream: its events, message-carrying
// sends and receives, and the largest send id (-1 if none).
type rankCounts struct {
	events, sends, recvs int
	maxSendID            int64
}

// tally adds ev's message to the counts.
func (c *rankCounts) tally(ev *trace.Event) {
	if ev.MsgID == trace.NoMsg {
		return
	}
	if ev.Kind.IsSend() {
		c.sends++
		c.maxSendID = max(c.maxSendID, ev.MsgID)
	} else if ev.Kind.IsReceive() {
		c.recvs++
	}
}

// offsets are one rank's first node, program edge, and message edge
// (counted from the first message edge).
type offsets struct {
	node, prog, msg int32
}

// builder holds one build's layout and the state its stages share.
// Program edges occupy [0, numProg) rank-major; message edges follow,
// rank-major by receiving rank in receive order.
type builder struct {
	counts    []rankCounts
	off       []offsets // len procs+1; off[procs] holds the totals
	numProg   int32
	maxSendID int64
	// sendNode[id] is the send's node id+1; recvEdge[id] the consuming
	// message edge's index+1.
	sendNode, recvEdge joinTable
	// msgID is the MsgID column indexed by node id, the only event
	// field stage B needs beyond what the nodes carry.
	msgID []int64
	errs  []error
	g     *Graph
}

// build constructs the graph of src on up to workers goroutines.
func build(src source, workers int) (*Graph, error) {
	meta, p := src.meta()
	workers = max(min(workers, p), 1)
	b := &builder{counts: make([]rankCounts, p), errs: make([]error, p)}
	b.forEachRank(workers, func(r int) error {
		b.counts[r] = src.counts(r)
		return nil
	})
	dense, err := b.layout(meta)
	if err != nil {
		return nil, fmt.Errorf("graph: source trace invalid: %w", err)
	}
	if !dense {
		workers = 1 // map-backed join tables serve one worker
	}

	// Stage A: nodes, program edges, and the send join table.
	err = b.forEachRank(workers, func(r int) error {
		f := &rankFill{b: b, rank: r, want: b.counts[r], seen: rankCounts{maxSendID: -1}}
		if err := src.fill(f); err != nil {
			return err
		}
		return f.finish()
	})
	if err != nil {
		return nil, fmt.Errorf("graph: source trace invalid: %w", err)
	}
	// Stage B: message edges. Receives may precede their sender in
	// rank-major order, which is why this stage needs stage A complete.
	if err := b.forEachRank(workers, b.joinRank); err != nil {
		return nil, err
	}
	// Stage C: adjacency.
	b.g.Seal()
	return b.g, nil
}

// layout fixes every node and edge slot from the per-rank counts,
// rejecting counts no stream could match before they size anything,
// and reports whether the join tables are dense.
func (b *builder) layout(meta trace.Meta) (dense bool, err error) {
	b.off = make([]offsets, len(b.counts)+1)
	b.maxSendID = -1
	var nodes, prog, recvs, sends int64
	for r, c := range b.counts {
		if c.events < 0 || c.sends < 0 || c.recvs < 0 || c.sends > c.events || c.recvs > c.events-c.sends || c.maxSendID < -1 {
			return false, fmt.Errorf("rank %d: inconsistent counts (%d events, %d sends, %d recvs, max id %d)",
				r, c.events, c.sends, c.recvs, c.maxSendID)
		}
		nodes += int64(c.events)
		prog += int64(max(c.events-1, 0))
		recvs += int64(c.recvs)
		sends += int64(c.sends)
		if nodes >= math.MaxInt32 || prog+recvs >= math.MaxInt32 {
			return false, fmt.Errorf("%d+ events exceed the graph's int32 index space", nodes)
		}
		b.off[r+1] = offsets{node: int32(nodes), prog: int32(prog), msg: int32(recvs)}
		b.maxSendID = max(b.maxSendID, c.maxSendID)
	}
	b.numProg = int32(prog)
	b.msgID = make([]int64, nodes)
	b.g = &Graph{
		Meta:  meta,
		Nodes: make([]Node, nodes),
		Edges: make([]Edge, prog+recvs),
	}
	// The join tables are slices indexed by MsgID when ids are compact —
	// the simulator issues sequential ids, so the span is proportional
	// to the send count — and maps when they are scattered.
	dense = b.maxSendID+1 <= 4*sends+1024
	b.sendNode, b.recvEdge = newJoinTable(dense, b.maxSendID), newJoinTable(dense, b.maxSendID)
	return dense, nil
}

// rankFill is stage A's state for one rank: it validates the rank's
// stream, fills its nodes, program edges and MsgID column, and claims
// its send slots.
type rankFill struct {
	b           *builder
	rank        int
	want, seen  rankCounts
	lastTime    vtime.Time
	lastLamport int64
}

func (f *rankFill) add(ev *trace.Event) error {
	b, rank, i := f.b, f.rank, f.seen.events
	switch {
	case i == f.want.events:
		return fmt.Errorf("rank %d: more events than the %d counted", rank, f.want.events)
	case !ev.Kind.Valid():
		return fmt.Errorf("rank %d event %d: invalid kind %d", rank, i, ev.Kind)
	case ev.Rank != rank:
		return fmt.Errorf("rank %d event %d: recorded rank %d", rank, i, ev.Rank)
	case ev.Seq != i:
		return fmt.Errorf("rank %d event %d: seq %d not dense", rank, i, ev.Seq)
	case ev.Time < f.lastTime:
		return fmt.Errorf("rank %d event %d: time %v before predecessor %v", rank, i, ev.Time, f.lastTime)
	case i > 0 && ev.Lamport <= f.lastLamport:
		return fmt.Errorf("rank %d event %d: lamport %d not after predecessor %d", rank, i, ev.Lamport, f.lastLamport)
	}
	f.lastTime, f.lastLamport = ev.Time, ev.Lamport
	f.seen.events++
	f.seen.tally(ev)
	id := b.off[rank].node + int32(i)
	b.g.Nodes[id] = Node{
		ID:           NodeID(id),
		Rank:         ev.Rank,
		Seq:          ev.Seq,
		Kind:         ev.Kind,
		Label:        ev.Label(),
		Lamport:      ev.Lamport,
		Time:         ev.Time,
		CallstackKey: ev.CallstackKey(),
	}
	b.msgID[id] = ev.MsgID
	if i > 0 {
		b.g.Edges[b.off[rank].prog+int32(i-1)] = Edge{From: NodeID(id - 1), To: NodeID(id), Kind: EdgeProgram}
	}
	if ev.MsgID == trace.NoMsg || !ev.Kind.IsSend() {
		return nil
	}
	if ev.MsgID < 0 {
		return fmt.Errorf("rank %d event %d: negative msg id %d", rank, i, ev.MsgID)
	}
	if ev.MsgID > b.maxSendID {
		return fmt.Errorf("rank %d event %d: msg id %d above the counted maximum %d", rank, i, ev.MsgID, b.maxSendID)
	}
	// The node is written before the claim publishes its id, so a loser
	// reading the winner's node observes it complete.
	if prev := b.sendNode.claim(ev.MsgID, id+1); prev != 0 {
		return fmt.Errorf("msg %d sent twice (ranks %d and %d)", ev.MsgID, b.g.Nodes[prev-1].Rank, rank)
	}
	return nil
}

// finish checks the stream against the counts that fixed the layout: a
// stream with fewer events would leave slots empty, one with more
// receives would overrun the next rank's message edges in stage B.
func (f *rankFill) finish() error {
	if s, w := f.seen, f.want; s != w {
		return fmt.Errorf("rank %d: stream (%d events, %d sends, %d recvs, max id %d) disagrees with its counts (%d, %d, %d, %d)",
			f.rank, s.events, s.sends, s.recvs, s.maxSendID, w.events, w.sends, w.recvs, w.maxSendID)
	}
	return nil
}

// joinRank is stage B for one rank: it writes the message edges of the
// rank's receives, joined through the send table.
func (b *builder) joinRank(rank int) error {
	g := b.g
	slot := b.numProg + b.off[rank].msg
	for to := b.off[rank].node; to < b.off[rank+1].node; to++ {
		msgID := b.msgID[to]
		if msgID == trace.NoMsg || !g.Nodes[to].Kind.IsReceive() {
			continue
		}
		from := b.sendNode.get(msgID)
		if from == 0 {
			return fmt.Errorf("graph: recv of msg %d has no send", msgID)
		}
		if g.Nodes[to].Lamport <= g.Nodes[from-1].Lamport {
			return fmt.Errorf("graph: edge %d violates causality: lamport %d→%d",
				slot, g.Nodes[from-1].Lamport, g.Nodes[to].Lamport)
		}
		// The edge is written before the claim publishes its index, so a
		// loser reporting a duplicate observes the winner's edge.
		g.Edges[slot] = Edge{From: NodeID(from - 1), To: NodeID(to), Kind: EdgeMessage}
		if prev := b.recvEdge.claim(msgID, slot+1); prev != 0 {
			return fmt.Errorf("graph: source trace invalid: msg %d received twice (ranks %d and %d)",
				msgID, g.Nodes[g.Edges[prev-1].To].Rank, rank)
		}
		slot++
	}
	return nil
}

// joinTable maps message ids to 1-based node or edge indices (0 =
// absent). The dense form is a slice indexed by id whose slots are
// claimed with compare-and-swap, so concurrent duplicates are caught;
// the sparse form is a map for scattered ids and serves one worker.
type joinTable struct {
	dense  []int32
	sparse map[int64]int32
}

func newJoinTable(dense bool, maxID int64) joinTable {
	if dense {
		return joinTable{dense: make([]int32, maxID+1)}
	}
	return joinTable{sparse: make(map[int64]int32)}
}

// claim sets id's slot to v unless it is taken, and returns the slot's
// previous value (0 when the claim succeeded). id must be in range.
func (t joinTable) claim(id int64, v int32) int32 {
	if t.sparse != nil {
		prev := t.sparse[id]
		if prev == 0 {
			t.sparse[id] = v
		}
		return prev
	}
	if atomic.CompareAndSwapInt32(&t.dense[id], 0, v) {
		return 0
	}
	return atomic.LoadInt32(&t.dense[id])
}

// get returns id's slot, 0 if id is absent or out of range. Stages read
// a table only after the stage that claims its slots has finished.
func (t joinTable) get(id int64) int32 {
	if t.sparse != nil {
		return t.sparse[id]
	}
	if id < 0 || id >= int64(len(t.dense)) {
		return 0
	}
	return t.dense[id]
}

// forEachRank runs fn(rank) for every rank on up to workers goroutines
// and returns the lowest-rank error, the one a rank-major sequential
// build would have met first. Ranks are handed out through an atomic
// counter (work stealing), so a heavy rank — the fan-in root of a
// message race — does not serialize behind a static partition. One
// worker runs inline. A panic in fn becomes that rank's error, so a
// builder bug met on untrusted input cannot kill the process.
func (b *builder) forEachRank(workers int, fn func(rank int) error) error {
	p := len(b.errs)
	clear(b.errs)
	if workers <= 1 {
		for r := 0; r < p; r++ {
			b.runRank(r, fn)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for r := int(next.Add(1)) - 1; r < p; r = int(next.Add(1)) - 1 {
					b.runRank(r, fn)
				}
			}()
		}
		wg.Wait()
	}
	for _, err := range b.errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func (b *builder) runRank(r int, fn func(rank int) error) {
	defer func() {
		if v := recover(); v != nil {
			b.errs[r] = fmt.Errorf("graph: rank %d: internal error: %v", r, v)
		}
	}()
	b.errs[r] = fn(r)
}
