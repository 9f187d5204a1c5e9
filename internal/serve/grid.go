package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"github.com/anacin-go/anacinx/internal/campaign"
	"github.com/anacin-go/anacinx/internal/core"
	"github.com/anacin-go/anacinx/internal/patterns"
)

// GridRequest is the JSON body of POST /v1/campaigns: the wire form of
// a campaign.Grid. Omitted dimensions take the paper-flavoured
// defaults (campaign.DefaultGrid); an omitted or zero runs takes
// campaign.DefaultRuns — over HTTP there is no way to distinguish
// "absent" from 0, and a 0-run campaign is never what a client meant —
// while base_seed is taken literally (0 is a valid seed). kernel is a
// core.ParseKernel spec string ("wl2", "wlu3", "vertex", ...).
type GridRequest struct {
	Patterns      []string  `json:"patterns,omitempty"`
	Procs         []int     `json:"procs,omitempty"`
	Iterations    []int     `json:"iterations,omitempty"`
	Nodes         []int     `json:"nodes,omitempty"`
	NDPercents    []float64 `json:"nd_percents,omitempty"`
	Runs          int       `json:"runs,omitempty"`
	BaseSeed      int64     `json:"base_seed,omitempty"`
	Kernel        string    `json:"kernel,omitempty"`
	CaptureStacks bool      `json:"capture_stacks,omitempty"`
}

// decodeGridRequest reads one grid object from r, rejecting unknown
// fields and trailing data.
func decodeGridRequest(r io.Reader) (GridRequest, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var req GridRequest
	if err := dec.Decode(&req); err != nil {
		return GridRequest{}, err
	}
	if dec.More() {
		return GridRequest{}, errors.New("trailing data after the grid object")
	}
	return req, nil
}

// grid validates the request and converts it to a normalized
// campaign.Grid. Every returned error is a client error (HTTP 400):
// the limits guard the server, not the simulator — maxCells/maxRuns
// come from the server's Config.
func (r *GridRequest) grid(maxCells, maxRuns int) (campaign.Grid, error) {
	g := campaign.Grid{
		Patterns:      r.Patterns,
		Procs:         r.Procs,
		Iterations:    r.Iterations,
		Nodes:         r.Nodes,
		NDPercents:    r.NDPercents,
		Runs:          r.Runs,
		BaseSeed:      r.BaseSeed,
		CaptureStacks: r.CaptureStacks,
	}
	if g.Runs == 0 {
		g.Runs = campaign.DefaultRuns
	}
	if g.Runs < 1 {
		return campaign.Grid{}, fmt.Errorf("runs = %d, need >= 1", r.Runs)
	}
	if g.Runs > maxRuns {
		return campaign.Grid{}, fmt.Errorf("runs = %d exceeds the server's limit of %d", g.Runs, maxRuns)
	}
	k, err := core.ParseKernel(r.Kernel)
	if err != nil {
		return campaign.Grid{}, fmt.Errorf("kernel: %v", err)
	}
	g.Kernel = k

	q, err := g.Normalized()
	if err != nil {
		return campaign.Grid{}, err
	}
	// Multiply stepwise: the product of long dimension lists must not
	// overflow into an admissible count.
	cells := 1
	for _, n := range []int{len(q.Patterns), len(q.Procs), len(q.Iterations), len(q.Nodes), len(q.NDPercents)} {
		if cells *= n; cells > maxCells {
			return campaign.Grid{}, fmt.Errorf("grid has more than %d cells, the server's limit", maxCells)
		}
	}
	for _, name := range q.Patterns {
		pat, err := patterns.ByName(name)
		if err != nil {
			return campaign.Grid{}, err
		}
		for _, procs := range q.Procs {
			if procs < pat.MinProcs() {
				return campaign.Grid{}, fmt.Errorf("pattern %q needs >= %d procs, got %d", name, pat.MinProcs(), procs)
			}
		}
	}
	for _, it := range q.Iterations {
		if it < 1 {
			return campaign.Grid{}, fmt.Errorf("iterations must be >= 1, got %d", it)
		}
	}
	for _, n := range q.Nodes {
		if n < 1 {
			return campaign.Grid{}, fmt.Errorf("nodes must be >= 1, got %d", n)
		}
	}
	for _, nd := range q.NDPercents {
		if nd < 0 || nd > 100 {
			return campaign.Grid{}, fmt.Errorf("nd_percents must be in [0, 100], got %g", nd)
		}
	}
	return q, nil
}
