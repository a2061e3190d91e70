// Package crashpoint simulates whole-process crashes at labeled
// protocol steps. Where internal/objstore's fault injection models a
// flaky *remote* (the call fails, the process lives on and may retry),
// a crash point models the local process dying mid-protocol: execution
// unwinds immediately to a recovery boundary, all in-memory state is
// presumed lost, and only durable state — object-store contents,
// journal records, the catalog — survives. Recovery code then has to
// reconstruct a consistent world from that durable state alone.
//
// Protocol code marks its steps with labels:
//
//	l.Crash.At("commit.after_put")
//
// At is nil-safe and free when nothing is armed, so production paths
// carry their labels unconditionally. A test arms one (label, hit)
// pair — or a seeded probabilistic profile — and wraps the operation
// in Run, which converts the injected panic into a *Signal:
//
//	sig, err := crashpoint.Run(func() error { return op() })
//	if sig != nil { /* the "process" died at sig.Label; recover */ }
//
// Determinism contract: in Chaos mode, whether a given At call fires
// is a pure function of (seed, label, per-label hit index), exactly
// like objstore.FaultProfile — two runs of the same workload under the
// same seed crash at the same step.
package crashpoint

import (
	"fmt"
	"sync"
)

// Signal is the panic payload of an injected crash. It is not an
// error: nothing in the crashed call stack is supposed to handle it.
type Signal struct {
	Label string
	// Hit is the 0-based occurrence index of Label at which the crash
	// fired.
	Hit int
}

func (s Signal) String() string { return fmt.Sprintf("crash at %s #%d", s.Label, s.Hit) }

// Hit records one At call, for enumerating a protocol's crash surface.
type Hit struct {
	Label string
	N     int // 0-based occurrence index of this label
}

// Injector decides, per labeled step, whether the process "dies"
// there. The zero value and the nil injector inject nothing.
type Injector struct {
	mu     sync.Mutex
	counts map[string]int
	hits   []Hit

	armed    bool
	armLabel string
	armHit   int

	seed uint64
	rate float64

	fired *Signal
}

// New returns an idle injector that records every labeled step it
// passes through.
func New() *Injector { return &Injector{counts: make(map[string]int)} }

// Arm schedules a crash at the hit-th occurrence (0-based) of label.
// Arming replaces any previous schedule. The injector disarms itself
// when it fires: the recovered process does not re-crash at the same
// step while retrying.
func (in *Injector) Arm(label string, hit int) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.armed = true
	in.armLabel = label
	in.armHit = hit
	in.fired = nil
}

// Chaos arms a seeded probabilistic profile: each (label, hit) fires
// with probability rate, decided purely by (seed, label, hit). Like
// Arm, the injector disarms after firing.
func (in *Injector) Chaos(seed uint64, rate float64) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.seed = seed
	in.rate = rate
	in.fired = nil
}

// Disarm cancels any pending schedule or profile.
func (in *Injector) Disarm() {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.armed = false
	in.rate = 0
}

// Reset clears hit counters and the fired record, keeping nothing
// armed; used between recording and replay passes.
func (in *Injector) Reset() {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.counts = make(map[string]int)
	in.hits = nil
	in.armed = false
	in.rate = 0
	in.fired = nil
}

// Hits returns every labeled step passed so far, in order.
func (in *Injector) Hits() []Hit {
	in.mu.Lock()
	defer in.mu.Unlock()
	return append([]Hit(nil), in.hits...)
}

// Fired reports the crash that fired, if any.
func (in *Injector) Fired() *Signal {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.fired
}

// splitmix64 finalizer, as in objstore's fault roll.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

func hash64(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

func roll(seed uint64, label string, hit int) float64 {
	x := mix64(seed ^ hash64(label) + uint64(hit)*0x9E3779B97F4A7C15)
	return float64(x>>11) / float64(1<<53)
}

// At marks one labeled protocol step. If a crash is scheduled here it
// panics with a Signal, which Run converts back into a value at the
// recovery boundary. Nil-safe: a nil injector is a no-op, so wiring
// can leave the field unset in production assemblies.
func (in *Injector) At(label string) {
	if in == nil {
		return
	}
	in.mu.Lock()
	if in.counts == nil {
		in.counts = make(map[string]int)
	}
	n := in.counts[label]
	in.counts[label]++
	in.hits = append(in.hits, Hit{Label: label, N: n})

	fire := false
	if in.armed && label == in.armLabel && n == in.armHit {
		fire = true
		in.armed = false
	} else if in.rate > 0 && roll(in.seed, label, n) < in.rate {
		fire = true
		in.rate = 0
	}
	if !fire {
		in.mu.Unlock()
		return
	}
	sig := Signal{Label: label, Hit: n}
	in.fired = &sig
	in.mu.Unlock()
	panic(sig)
}

// Run executes op inside a recovery boundary: an injected crash
// unwinds to here and is returned as a *Signal instead of a panic.
// Any other panic propagates untouched. When sig is non-nil the
// operation's in-memory effects must be considered lost — callers
// rebuild state from durable storage, they do not keep using the
// crashed structures.
func Run(op func() error) (sig *Signal, err error) {
	defer func() {
		if r := recover(); r != nil {
			if s, ok := r.(Signal); ok {
				sig = &s
				return
			}
			panic(r)
		}
	}()
	err = op()
	return
}
