// Package sim provides the simulation substrate shared by every
// BigLake component in this repository: a virtual clock, calibrated
// latency/cost models for cloud services, and seeded randomness.
//
// The paper's latency-bound results (metadata caching, BLMT commit
// throughput, object-table listing, cross-cloud queries) are driven by
// cloud-API behaviour — slow paginated LISTs, per-request overheads,
// bounded mutation rates, and cross-cloud round trips — rather than by
// CPU work. The virtual clock lets benchmarks reproduce those shapes
// deterministically on a laptop: components charge the clock with the
// simulated latency of each remote operation while CPU-bound work
// (scans, vectorized evaluation) runs for real.
package sim

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"
)

// Clock is a virtual monotonic clock. Components charge it with the
// simulated duration of remote operations. A Clock also supports
// parallel "tracks": concurrent workers advance private frontiers and
// the clock's global time is the maximum frontier, modelling wall
// clock under parallelism without real sleeping.
type Clock struct {
	mu  sync.Mutex
	now time.Duration
}

// NewClock returns a clock at simulated time zero.
func NewClock() *Clock { return &Clock{} }

// Now returns the current simulated time since the clock's epoch.
func (c *Clock) Now() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// Advance moves simulated time forward by d (sequential work on the
// critical path). It returns the new simulated time.
func (c *Clock) Advance(d time.Duration) time.Duration {
	if d < 0 {
		d = 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now += d
	return c.now
}

// AdvanceTo moves the clock forward to t if t is later than the
// current simulated time; used to merge a parallel track's frontier
// back into the global clock.
func (c *Clock) AdvanceTo(t time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if t > c.now {
		c.now = t
	}
}

// Charger is anything simulated latency can be charged to: the global
// Clock (critical path) or a Track (one parallel worker).
type Charger interface {
	Charge(d time.Duration)
}

// Charge advances the clock; it makes *Clock a Charger.
func (c *Clock) Charge(d time.Duration) { c.Advance(d) }

// Track is a private time frontier for one concurrent worker. Charges
// to the track accumulate locally; Join folds the frontier into the
// parent clock, so N parallel workers each doing d of work advance the
// global clock by d, not N*d. Tracks are safe for concurrent use:
// goroutines sharing a track model one worker executing their
// operations back to back.
type Track struct {
	clock *Clock
	now   atomic.Int64 // time.Duration in nanoseconds
}

// StartTrack opens a parallel track at the current simulated time.
func (c *Clock) StartTrack() *Track {
	t := &Track{clock: c}
	t.now.Store(int64(c.Now()))
	return t
}

// Advance charges d of simulated time to this track only.
func (t *Track) Advance(d time.Duration) {
	if d > 0 {
		t.now.Add(int64(d))
	}
}

// Charge advances the track; it makes *Track a Charger.
func (t *Track) Charge(d time.Duration) { t.Advance(d) }

// Now returns the track's local frontier.
func (t *Track) Now() time.Duration { return time.Duration(t.now.Load()) }

// Join merges the track's frontier into the parent clock.
func (t *Track) Join() { t.clock.AdvanceTo(t.Now()) }

// OnTracks is the one simulated-parallel stage: it runs fn(k, tracks)
// for every k in [0, n), at most workers at a time, over workers tracks
// opened at the clock's current time. fn charges item k to the track
// its caller's lane rule picks. Every track folds into the clock before
// OnTracks returns, whatever failed, and every error is joined in k
// order: a failing stage charges the time it spent and reports the
// same error on every run.
func (c *Clock) OnTracks(workers, n int, fn func(k int, tracks []*Track) error) error {
	tracks := make([]*Track, workers)
	for i := range tracks {
		tracks[i] = c.StartTrack()
	}
	errs := make([]error, n)
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for k := 0; k < n; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			errs[k] = fn(k, tracks)
		}(k)
	}
	wg.Wait()
	for _, tr := range tracks {
		tr.Join()
	}
	return errors.Join(errs...)
}

// RNG is a small deterministic PRNG (xorshift64*) used everywhere a
// component needs reproducible pseudo-randomness without pulling in
// math/rand state coupling between packages.
type RNG struct {
	state uint64
}

// NewRNG returns a deterministic generator for the given seed.
func NewRNG(seed uint64) *RNG {
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	return &RNG{state: seed}
}

// Uint64 returns the next pseudo-random value.
func (r *RNG) Uint64() uint64 {
	x := r.state
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	r.state = x
	return x * 0x2545F4914F6CDD1D
}

// Intn returns a value in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / float64(1<<53)
}

// Norm returns an approximately normal deviate with mean 0 and
// standard deviation 1 (sum of uniforms; adequate for latency jitter).
func (r *RNG) Norm() float64 {
	s := 0.0
	for i := 0; i < 12; i++ {
		s += r.Float64()
	}
	return s - 6
}
