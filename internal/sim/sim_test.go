package sim

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

func TestClockAdvance(t *testing.T) {
	c := NewClock()
	if c.Now() != 0 {
		t.Fatalf("new clock at %v, want 0", c.Now())
	}
	c.Advance(5 * time.Millisecond)
	c.Advance(7 * time.Millisecond)
	if got := c.Now(); got != 12*time.Millisecond {
		t.Fatalf("Now = %v, want 12ms", got)
	}
}

func TestClockAdvanceNegativeIgnored(t *testing.T) {
	c := NewClock()
	c.Advance(10 * time.Millisecond)
	c.Advance(-5 * time.Millisecond)
	if got := c.Now(); got != 10*time.Millisecond {
		t.Fatalf("Now = %v, want 10ms", got)
	}
}

func TestClockAdvanceTo(t *testing.T) {
	c := NewClock()
	c.Advance(10 * time.Millisecond)
	c.AdvanceTo(5 * time.Millisecond) // earlier: no-op
	if got := c.Now(); got != 10*time.Millisecond {
		t.Fatalf("Now = %v after stale AdvanceTo, want 10ms", got)
	}
	c.AdvanceTo(30 * time.Millisecond)
	if got := c.Now(); got != 30*time.Millisecond {
		t.Fatalf("Now = %v, want 30ms", got)
	}
}

func TestParallelTracksTakeMaxNotSum(t *testing.T) {
	c := NewClock()
	// Start all tracks at the same simulated instant, then advance and
	// join them concurrently — the pattern parallel scan workers use.
	tracks := make([]*Track, 8)
	for i := range tracks {
		tracks[i] = c.StartTrack()
	}
	var wg sync.WaitGroup
	for _, tr := range tracks {
		wg.Add(1)
		go func(tr *Track) {
			defer wg.Done()
			tr.Advance(100 * time.Millisecond)
			tr.Join()
		}(tr)
	}
	wg.Wait()
	if got := c.Now(); got != 100*time.Millisecond {
		t.Fatalf("parallel tracks advanced clock to %v, want 100ms (max, not sum)", got)
	}
}

func TestTrackSequentialCharges(t *testing.T) {
	c := NewClock()
	tr := c.StartTrack()
	tr.Advance(3 * time.Millisecond)
	tr.Advance(4 * time.Millisecond)
	if tr.Now() != 7*time.Millisecond {
		t.Fatalf("track frontier %v, want 7ms", tr.Now())
	}
	tr.Join()
	if c.Now() != 7*time.Millisecond {
		t.Fatalf("clock %v after join, want 7ms", c.Now())
	}
}

func TestTrackStartsAtClockTime(t *testing.T) {
	c := NewClock()
	c.Advance(time.Second)
	tr := c.StartTrack()
	tr.Advance(time.Millisecond)
	tr.Join()
	if got := c.Now(); got != time.Second+time.Millisecond {
		t.Fatalf("clock %v, want 1.001s", got)
	}
}

// TestOnTracksJoinsErrorsInItemOrder: item 2 fails before item 0 does,
// and the result still reads item 0's error first — the text does not
// depend on which goroutine finished first.
func TestOnTracksJoinsErrorsInItemOrder(t *testing.T) {
	c := NewClock()
	errA, errC := errors.New("item 0"), errors.New("item 2")
	lateFailed := make(chan struct{})
	err := c.OnTracks(3, 3, func(k int, _ []*Track) error {
		switch k {
		case 0:
			<-lateFailed
			return errA
		case 2:
			defer close(lateFailed)
			return errC
		}
		return nil
	})
	if !errors.Is(err, errA) || !errors.Is(err, errC) {
		t.Fatalf("err = %v, want both item errors", err)
	}
	if got, want := err.Error(), "item 0\nitem 2"; got != want {
		t.Fatalf("err = %q, want %q", got, want)
	}
}

// TestOnTracksFoldsEveryTrackOnFailure: every item fails, yet the clock
// advances by the busiest lane's work — the failed stage's time counts.
func TestOnTracksFoldsEveryTrackOnFailure(t *testing.T) {
	c := NewClock()
	c.Advance(time.Second)
	const workers = 4
	err := c.OnTracks(workers, 8, func(k int, tracks []*Track) error {
		tracks[k%workers].Advance(time.Duration(k+1) * time.Millisecond)
		return fmt.Errorf("item %d", k)
	})
	if err == nil {
		t.Fatal("eight failing items returned nil")
	}
	// Lane 3 carries items 3 and 7: 4ms + 8ms.
	if got, want := c.Now(), time.Second+12*time.Millisecond; got != want {
		t.Fatalf("clock %v after a failed stage, want %v", got, want)
	}
}

func TestOnTracksBoundsConcurrency(t *testing.T) {
	c := NewClock()
	const workers = 3
	var active, peak atomic.Int32
	err := c.OnTracks(workers, 24, func(k int, _ []*Track) error {
		n := active.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		time.Sleep(time.Millisecond)
		active.Add(-1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > workers {
		t.Fatalf("%d calls ran at once, want at most %d", p, workers)
	}
}

func TestOnTracksNoItems(t *testing.T) {
	c := NewClock()
	c.Advance(5 * time.Millisecond)
	err := c.OnTracks(4, 0, func(int, []*Track) error {
		t.Error("fn called with n = 0")
		return nil
	})
	if err != nil {
		t.Fatalf("err = %v, want nil", err)
	}
	if got := c.Now(); got != 5*time.Millisecond {
		t.Fatalf("clock %v, want 5ms", got)
	}
}

func TestRNGDeterministic(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	c := NewRNG(43)
	same := true
	a42 := NewRNG(42)
	for i := 0; i < 10; i++ {
		if a42.Uint64() != c.Uint64() {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestRNGZeroSeed(t *testing.T) {
	r := NewRNG(0)
	if r.Uint64() == 0 && r.Uint64() == 0 {
		t.Fatal("zero seed must still produce a usable stream")
	}
}

func TestRNGIntnRange(t *testing.T) {
	r := NewRNG(7)
	if err := quick.Check(func(nRaw uint16) bool {
		n := int(nRaw%1000) + 1
		v := r.Intn(n)
		return v >= 0 && v < n
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(9)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestRNGIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) should panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestStreamTime(t *testing.T) {
	if got := StreamTime(0, time.Millisecond); got != 0 {
		t.Fatalf("StreamTime(0) = %v", got)
	}
	if got := StreamTime(-5, time.Millisecond); got != 0 {
		t.Fatalf("StreamTime(neg) = %v", got)
	}
	if got := StreamTime(2*MB, 4*time.Millisecond); got != 8*time.Millisecond {
		t.Fatalf("StreamTime(2MB) = %v, want 8ms", got)
	}
	if got := StreamTime(MB/2, 4*time.Millisecond); got != 2*time.Millisecond {
		t.Fatalf("StreamTime(0.5MB) = %v, want 2ms", got)
	}
}

func TestProfileFor(t *testing.T) {
	if ProfileFor("aws").Name != "aws" {
		t.Fatal("aws profile")
	}
	if ProfileFor("azure").Name != "azure" {
		t.Fatal("azure profile")
	}
	if ProfileFor("gcp").Name != "gcp" {
		t.Fatal("gcp profile")
	}
	p := ProfileFor("on-prem")
	if p.Name != "on-prem" || p.ListPageLatency != GCP.ListPageLatency {
		t.Fatalf("unknown cloud should inherit GCP timings, got %+v", p)
	}
}

func TestProfilesMutationRateMatchesPaper(t *testing.T) {
	// §3.5: object stores allow only a handful of mutations per second
	// on a single object. All profiles must model that at <= 10/s.
	for _, p := range []CloudProfile{GCP, AWS, Azure} {
		perSec := time.Second / p.MutationInterval
		if perSec > 10 {
			t.Errorf("%s allows %d mutations/s; paper requires 'a handful'", p.Name, perSec)
		}
	}
}

func TestRNGNormRoughMoments(t *testing.T) {
	r := NewRNG(1234)
	n := 20000
	var sum, sq float64
	for i := 0; i < n; i++ {
		v := r.Norm()
		sum += v
		sq += v * v
	}
	mean := sum / float64(n)
	variance := sq/float64(n) - mean*mean
	if mean < -0.05 || mean > 0.05 {
		t.Fatalf("Norm mean %v, want ~0", mean)
	}
	if variance < 0.9 || variance > 1.1 {
		t.Fatalf("Norm variance %v, want ~1", variance)
	}
}
