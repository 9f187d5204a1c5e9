package graph

import (
	"fmt"

	"github.com/anacin-go/anacinx/internal/trace"
)

// fromTraceSeq is the identity tests' oracle: an independent,
// map-based sequential build that validates through trace.Validate and
// Graph.Validate instead of build's inline checks.
func fromTraceSeq(tr *trace.Trace) (*Graph, error) {
	if err := tr.Validate(); err != nil {
		return nil, fmt.Errorf("graph: source trace invalid: %w", err)
	}
	// Counting pass: exact node and edge capacities cost one cheap sweep
	// and spare the build loops every reallocation.
	numProg, numSends, numRecvs := 0, 0, 0
	for _, evs := range tr.Events {
		if len(evs) > 0 {
			numProg += len(evs) - 1
		}
		for i := range evs {
			e := &evs[i]
			if e.MsgID == trace.NoMsg {
				continue
			}
			if e.Kind.IsSend() {
				numSends++
			} else if e.Kind.IsReceive() {
				numRecvs++
			}
		}
	}
	g := &Graph{
		Meta:  tr.Meta,
		Nodes: make([]Node, 0, tr.NumEvents()),
		Edges: make([]Edge, 0, numProg+numRecvs),
	}
	sendNode := make(map[int64]NodeID, numSends)
	for _, evs := range tr.Events {
		for i := range evs {
			e := &evs[i]
			id := NodeID(len(g.Nodes))
			g.Nodes = append(g.Nodes, Node{
				ID:           id,
				Rank:         e.Rank,
				Seq:          e.Seq,
				Kind:         e.Kind,
				Label:        e.Label(),
				Lamport:      e.Lamport,
				Time:         e.Time,
				CallstackKey: e.CallstackKey(),
			})
			if i > 0 {
				g.Edges = append(g.Edges, Edge{From: id - 1, To: id, Kind: EdgeProgram})
			}
			if e.MsgID != trace.NoMsg && e.Kind.IsSend() {
				sendNode[e.MsgID] = id
			}
		}
	}
	// Second pass for message edges: a receive may precede its sender in
	// rank-major order.
	var id NodeID
	for _, evs := range tr.Events {
		for i := range evs {
			e := &evs[i]
			if e.MsgID != trace.NoMsg && e.Kind.IsReceive() {
				from, ok := sendNode[e.MsgID]
				if !ok {
					return nil, fmt.Errorf("graph: recv of msg %d has no send", e.MsgID)
				}
				g.Edges = append(g.Edges, Edge{From: from, To: id, Kind: EdgeMessage})
			}
			id++
		}
	}
	g.Seal()
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}
