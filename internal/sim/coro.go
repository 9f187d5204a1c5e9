//go:build go1.23

package sim

import (
	"iter"
	"sync"
)

// maxIdleCoros caps how many parked rank coroutines outlive their run.
// A parked coroutine is a GC root whose stack every cycle scans (about
// 2.3 µs each on a 2-vCPU x86 VM), so an unbounded pool would tax every
// later collection. 1024 is the largest rank count of the gated quick
// bench set, so a sweep of such runs never creates a coroutine after
// its first run.
const maxIdleCoros = 1024

// rankCoro is one reusable rank coroutine. Its body loops forever: run
// rankMain for the current assignment, clear the assignment, park. The
// scheduler resumes a rank with next and the rank hands control back
// with yield, so a switch is a direct coroutine transfer that never
// goes through the goroutine run queue.
//
// Coroutines are pooled because creating one costs about a dozen
// allocations, several times a rank's own; a parked coroutine is handed
// to the next run's rank instead.
type rankCoro struct {
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool // set when the body first runs

	// The current assignment; all nil while the coroutine is parked.
	s       *simulation
	r       *Rank
	program Program
}

// coroPool holds parked coroutines for reuse across runs, which may be
// driven from different goroutines one after another.
var coroPool struct {
	sync.Mutex
	idle []*rankCoro
}

func newRankCoro() *rankCoro {
	c := new(rankCoro)
	c.next, c.stop = iter.Pull(c.body)
	return c
}

func (c *rankCoro) body(yield func(struct{}) bool) {
	c.yield = yield
	for {
		c.s.rankMain(c.r, c.program)
		c.s, c.r, c.program = nil, nil, nil
		if !yield(struct{}{}) {
			return
		}
	}
}

// attach binds a coroutine to every rank, taking parked ones from the
// pool before creating new ones.
func (s *simulation) attach(program Program) {
	coroPool.Lock()
	idle := coroPool.idle
	k := max(len(idle)-len(s.ranks), 0)
	for i, c := range idle[k:] {
		s.ranks[i].co = c
		idle[k+i] = nil
	}
	coroPool.idle = idle[:k]
	coroPool.Unlock()
	for _, r := range s.ranks {
		if r.co == nil {
			r.co = newRankCoro()
		}
		r.co.s, r.co.r, r.co.program = s, r, program
	}
}

// detach returns the run's coroutines to the pool, up to maxIdleCoros,
// and stops the rest. Only a coroutine parked after its rank finished
// is reusable. A rank calling runtime.Goexit skips shutdown: its own
// coroutine has exited for good, and the others, stopped mid-program,
// unwind through abortSentinel.
func (s *simulation) detach() {
	s.abortFlag = true
	coroPool.Lock()
	for _, r := range s.ranks {
		if r.co.r == nil && len(coroPool.idle) < maxIdleCoros {
			coroPool.idle = append(coroPool.idle, r.co)
			r.co = nil
		}
	}
	coroPool.Unlock()
	for _, r := range s.ranks {
		if r.co != nil {
			r.co.stop()
		}
	}
}
