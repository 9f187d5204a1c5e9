package trace

import (
	"runtime"
	"strings"
	"sync"
)

// maxStackDepth bounds how many application frames a recorded callstack
// keeps. Deep recursion beyond this is truncated from the outermost end.
const maxStackDepth = 32

// framePrefixesToTrim lists function-name prefixes that belong to the
// runtime plumbing rather than the "application" (the pattern code a
// student would inspect). ANACIN-X similarly strips MPI-library and
// tracer frames so callstack analysis surfaces user code.
var framePrefixesToTrim = []string{
	"runtime.",
	"testing.",
	// Each rank runs on an iter.Pull coroutine.
	"iter.",
	// Simulator machinery is all methods on these receivers; free
	// functions in package sim (e.g. test programs) are kept.
	"github.com/anacin-go/anacinx/internal/sim.(*Rank).",
	"github.com/anacin-go/anacinx/internal/sim.(*simulation).",
	"github.com/anacin-go/anacinx/internal/sim.(*rankCoro).",
}

// Stack is an interned callstack: a shared immutable frame slice
// (innermost application frame first) plus the precomputed ";"-joined
// CallstackKey. All events that issued an MPI call from the same
// callsite share one Stack — callers must treat Frames as read-only.
// The zero Stack means "no callstack recorded".
type Stack struct {
	Frames []string
	Key    string
}

// The intern cache maps raw program-counter sequences to their decoded,
// trimmed Stack. Symbolization (runtime.CallersFrames plus name
// shortening) runs once per distinct callsite per process instead of
// once per traced event — the same replay-system insight that keeps
// recording overhead negligible in classic execution-replay tracers:
// repeated structure is interned, not re-symbolized. The cache is
// keyed on the raw PCs (hash plus exact slice equality, so hash
// collisions cost a scan, never a wrong answer) and is shared
// process-wide, like kernel.Interner: concurrent simulated runs hammer
// it from many goroutines.
type stackEntry struct {
	pcs []uintptr
	st  Stack
}

var stackCache = struct {
	sync.RWMutex
	buckets map[uint64][]*stackEntry
}{buckets: make(map[uint64][]*stackEntry, 64)}

// pcBufPool recycles the raw-PC capture buffers so the hit path of
// CaptureStackInterned allocates nothing at all.
var pcBufPool = sync.Pool{New: func() any {
	b := make([]uintptr, maxStackDepth+8)
	return &b
}}

// CaptureStack records the current goroutine's call-path as a slice of
// function names, innermost application frame first. skip extra frames
// below the caller are dropped (0 means the caller of CaptureStack is the
// innermost candidate). Runtime, testing, and simulator frames are
// removed so the result reads like the call-path of the traced program.
//
// The returned slice is shared with every other capture of the same
// callsite and must not be mutated; use CaptureStackInterned to also
// receive the precomputed key.
func CaptureStack(skip int) []string {
	return CaptureStackInterned(skip + 1).Frames
}

// CaptureStackInterned is CaptureStack plus interning: it returns the
// shared frame slice together with the ";"-joined CallstackKey, decoded
// once per distinct callsite. The simulator records the key alongside
// each event so downstream consumers (the event-graph builder, the
// binary writer) never re-join frames.
func CaptureStackInterned(skip int) Stack {
	bufp := pcBufPool.Get().(*[]uintptr)
	pcs := (*bufp)[:cap(*bufp)]
	n := runtime.Callers(skip+2, pcs)
	if n == 0 {
		pcBufPool.Put(bufp)
		return Stack{}
	}
	st := internPCs(pcs[:n])
	pcBufPool.Put(bufp)
	return st
}

// internPCs resolves a raw PC sequence through the cache, decoding and
// inserting on first sight.
func internPCs(pcs []uintptr) Stack {
	h := hashPCs(pcs)
	stackCache.RLock()
	for _, e := range stackCache.buckets[h] {
		if pcsEqual(e.pcs, pcs) {
			st := e.st
			stackCache.RUnlock()
			return st
		}
	}
	stackCache.RUnlock()

	// Decode outside the lock: symbolization is the expensive part, it
	// is a pure function of the PCs, and racing decoders of the same
	// callsite produce identical results — only one wins the insert.
	st := Stack{Frames: decodeFrames(pcs)}
	st.Key = joinFrames(st.Frames)

	stackCache.Lock()
	for _, e := range stackCache.buckets[h] {
		if pcsEqual(e.pcs, pcs) {
			st = e.st
			stackCache.Unlock()
			return st
		}
	}
	stackCache.buckets[h] = append(stackCache.buckets[h], &stackEntry{
		pcs: append([]uintptr(nil), pcs...), // pcs aliases a pooled buffer
		st:  st,
	})
	stackCache.Unlock()
	return st
}

// decodeFrames symbolizes and trims a PC sequence — the pre-interning
// body of CaptureStack, run once per distinct callsite.
func decodeFrames(pcs []uintptr) []string {
	frames := runtime.CallersFrames(pcs)
	var stack []string
	for {
		frame, more := frames.Next()
		name := frame.Function
		if name != "" && !trimmedFrame(name) {
			stack = append(stack, shortFuncName(name))
			if len(stack) >= maxStackDepth {
				break
			}
		}
		if !more {
			break
		}
	}
	return stack
}

// joinFrames builds the ";"-joined callstack key, or "" for an empty
// stack (Event.CallstackKey maps that to "(unknown)").
func joinFrames(frames []string) string {
	if len(frames) == 0 {
		return ""
	}
	n := len(frames) - 1
	for _, f := range frames {
		n += len(f)
	}
	var b strings.Builder
	b.Grow(n)
	b.WriteString(frames[0])
	for _, f := range frames[1:] {
		b.WriteByte(';')
		b.WriteString(f)
	}
	return b.String()
}

// hashPCs is FNV-1a over the PC words. Collisions are resolved by
// pcsEqual, so the hash only needs to spread, not to be perfect.
func hashPCs(pcs []uintptr) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, pc := range pcs {
		h ^= uint64(pc)
		h *= prime64
	}
	return h
}

func pcsEqual(a, b []uintptr) bool {
	if len(a) != len(b) {
		return false
	}
	for i, v := range a {
		if v != b[i] {
			return false
		}
	}
	return true
}

func trimmedFrame(name string) bool {
	for _, p := range framePrefixesToTrim {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	// sim.Adapt's wrapper closure gets caller-scoped synthesized names
	// when inlined ("pkg.caller.Adapt.funcN", with N depending on the
	// instantiation), so matching by substring is required to keep
	// callstacks stable across otherwise-identical runs.
	return strings.Contains(name, ".Adapt.func")
}

// shortFuncName reduces a fully qualified function name such as
// "github.com/anacin-go/anacinx/internal/patterns.(*AMG).exchange" to
// "patterns.(*AMG).exchange": the last path element plus symbol. That is
// the granularity a student reads in the Fig. 8 bar chart.
func shortFuncName(full string) string {
	if i := strings.LastIndexByte(full, '/'); i >= 0 {
		return full[i+1:]
	}
	return full
}
