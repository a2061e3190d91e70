package storageapi

import (
	"errors"
	"sync"
	"testing"
	"time"

	"biglake/internal/vector"
)

// liveStreams is the number of stream states a session holds.
func (s *Server) liveStreams(id string) int {
	sess, err := s.session(id)
	if err != nil {
		return 0
	}
	sess.mu.Lock()
	defer sess.mu.Unlock()
	return len(sess.streams)
}

// heldSessions is the number of sessions and cache entries the server
// holds.
func (s *Server) heldSessions() (sessions, cached int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.sessions), len(s.cache)
}

// TestLifetimeRetryBudgetPerAcquisition: every acquisition of a reused
// session reads under a retry budget of its own, so one transient fault
// per acquisition is absorbed however often the session is reused (a
// budget shared by every reuse ran dry after 64).
func TestLifetimeRetryBudgetPerAcquisition(t *testing.T) {
	ev := newEnv(t)
	ev.createSales(t, 4, 10)
	req := ReadSessionRequest{Table: "ds.sales", Principal: adminP, MaxStreams: 2}
	var id string
	for i := 0; i < 200; i++ {
		sess, err := ev.srv.CreateReadSession(req)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			id = sess.ID
		} else if !sess.Reused || sess.ID != id {
			t.Fatalf("acquisition %d: reused=%v id %s, want a reuse of %s", i, sess.Reused, sess.ID, id)
		}
		ev.store.FailNext(1)
		b, err := ev.srv.ReadAll(sess)
		if err != nil {
			t.Fatalf("acquisition %d: %v", i, err)
		}
		if b.N != 40 {
			t.Fatalf("acquisition %d: %d rows, want 40", i, b.N)
		}
	}
}

// TestLifetimeDrainedStreamsFreed: a stream's state goes once its last
// item has been served, so a session reused and drained 1,000 times
// holds no stream state at all.
func TestLifetimeDrainedStreamsFreed(t *testing.T) {
	ev := newEnv(t)
	ev.createSales(t, 4, 5)
	req := ReadSessionRequest{Table: "ds.sales", Principal: adminP, MaxStreams: 2}
	var id string
	for i := 0; i < 1000; i++ {
		sess, err := ev.srv.CreateReadSession(req)
		if err != nil {
			t.Fatal(err)
		}
		id = sess.ID
		if _, err := ev.srv.ReadAll(sess); err != nil {
			t.Fatal(err)
		}
	}
	if n := ev.srv.liveStreams(id); n != 0 {
		t.Fatalf("after 1000 drained acquisitions the session holds %d stream states, want 0", n)
	}
	// An aggregate acquisition stores only the stream that answers.
	agg := req
	agg.Aggregates = []AggregateRequest{{Column: "amount", Kind: vector.AggSum}}
	sess, err := ev.srv.CreateReadSession(agg)
	if err != nil {
		t.Fatal(err)
	}
	if n := ev.srv.liveStreams(sess.ID); n != 1 || len(sess.Streams) != 2 {
		t.Fatalf("an aggregate acquisition of %d streams stores %d, want 1", len(sess.Streams), n)
	}
}

// TestLifetimeExpiredSessionsReclaimed: a session whose reuse window
// has closed and whose last acquisition has expired leaves the server
// with its cache entry — drained or not.
func TestLifetimeExpiredSessionsReclaimed(t *testing.T) {
	ev := newEnv(t)
	ev.createSales(t, 4, 5)
	req := ReadSessionRequest{Table: "ds.sales", Principal: adminP, MaxStreams: 2}
	for i := 0; i < 200; i++ {
		sess, err := ev.srv.CreateReadSession(req)
		if err != nil {
			t.Fatal(err)
		}
		if sess.Reused {
			t.Fatalf("round %d reused a session past its TTL", i)
		}
		if i%2 == 0 {
			if _, err := ev.srv.ReadAll(sess); err != nil {
				t.Fatal(err)
			}
		}
		ev.clock.Advance(ev.srv.SessionTTL + time.Second)
	}
	if _, err := ev.srv.CreateReadSession(req); err != nil {
		t.Fatal(err)
	}
	if sessions, cached := ev.srv.heldSessions(); sessions != 1 || cached != 1 {
		t.Fatalf("after 200 expiries the server holds %d sessions and %d cache entries, want the live one", sessions, cached)
	}
}

// TestLifetimeUnreadSessionReclaimed: a session created and never read
// (Sparkle's estimate) is reclaimed once SessionTTL has passed; an
// acquisition opened late in the reuse window holds its session until
// SessionTTL after it was opened, so its drained streams still answer
// ErrEndOfStream after the window has closed.
func TestLifetimeUnreadSessionReclaimed(t *testing.T) {
	ev := newEnv(t)
	ev.createSales(t, 4, 5)
	ttl := ev.srv.SessionTTL
	other := func(cols ...string) {
		t.Helper()
		if _, err := ev.srv.CreateReadSession(ReadSessionRequest{Table: "ds.sales", Principal: adminP, Columns: cols}); err != nil {
			t.Fatal(err)
		}
	}
	est, err := ev.srv.CreateReadSession(ReadSessionRequest{Table: "ds.sales", Principal: adminP, MaxStreams: 1})
	if err != nil {
		t.Fatal(err)
	}
	ev.clock.Advance(ttl / 2)
	other("id")
	if _, err := ev.srv.session(est.ID); err != nil {
		t.Fatalf("reclaimed inside its TTL: %v", err)
	}
	ev.clock.Advance(ttl)
	other("region")
	if _, err := ev.srv.ReadRows(est.ID, est.Streams[0]); !errors.Is(err, ErrNoSession) {
		t.Fatalf("unread session past its TTL: err = %v, want ErrNoSession", err)
	}

	// A reuse half way through the window holds the session past the
	// window's end, and no longer than SessionTTL after it opened.
	req := ReadSessionRequest{Table: "ds.sales", Principal: adminP, MaxStreams: 2}
	if _, err := ev.srv.CreateReadSession(req); err != nil {
		t.Fatal(err)
	}
	ev.clock.Advance(ttl / 2)
	late, err := ev.srv.CreateReadSession(req)
	if err != nil || !late.Reused {
		t.Fatalf("late reuse: %+v, %v", late, err)
	}
	ev.clock.Advance(ttl/2 + time.Second)
	if b, err := ev.srv.ReadAll(late); err != nil || b.N != 20 {
		t.Fatalf("an unexpired acquisition after its window: %v rows, err %v", b, err)
	}
	other("email")
	if _, err := ev.srv.ReadRows(late.ID, late.Streams[0]); !errors.Is(err, ErrEndOfStream) {
		t.Fatalf("drained stream of an unexpired acquisition: err = %v, want ErrEndOfStream", err)
	}
	ev.clock.Advance(ttl / 2)
	other("amount")
	if _, err := ev.srv.ReadRows(late.ID, late.Streams[1]); !errors.Is(err, ErrNoSession) {
		t.Fatalf("expired acquisition: err = %v, want ErrNoSession", err)
	}
	if sessions, cached := ev.srv.heldSessions(); sessions != 2 || cached != 2 {
		t.Fatalf("the server holds %d sessions and %d cache entries, want the last two created", sessions, cached)
	}
}

// TestLifetimeConcurrentAcquisitions: clients reuse, split and drain
// acquisitions of one session shape, or leave them undrained, while the
// clock runs past SessionTTL again and again. Every ReadAll that
// succeeds returns every row; one fails only with ErrNoSession, after
// its acquisition expired; once every client is done and the window has
// closed, nothing is held but the session created last. Run under -race.
func TestLifetimeConcurrentAcquisitions(t *testing.T) {
	ev := newEnv(t)
	ev.createSales(t, 8, 5)
	ttl := ev.srv.SessionTTL
	req := ReadSessionRequest{Table: "ds.sales", Principal: adminP, MaxStreams: 2}
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				opened := ev.clock.Now()
				sess, err := ev.srv.CreateReadSession(req)
				if err != nil {
					t.Error(err)
					return
				}
				switch (c + i) % 4 {
				case 0:
					continue // left undrained
				case 1:
					if _, err := ev.srv.SplitStream(sess.ID, sess.Streams[c%2]); err != nil &&
						!errors.Is(err, ErrNoSession) {
						t.Error(err)
						return
					}
				case 2:
					ev.clock.Advance(ttl / 3)
				}
				b, err := ev.srv.ReadAll(sess)
				switch {
				case errors.Is(err, ErrNoSession) && ev.clock.Now() > opened+ttl:
				case err != nil:
					t.Error(err)
					return
				case b.N != 40:
					t.Errorf("ReadAll = %d rows, want 40", b.N)
					return
				}
			}
		}()
	}
	wg.Wait()
	ev.clock.Advance(ttl + time.Second)
	last, err := ev.srv.CreateReadSession(req)
	if err != nil {
		t.Fatal(err)
	}
	if sessions, cached := ev.srv.heldSessions(); sessions != 1 || cached != 1 {
		t.Fatalf("the server holds %d sessions and %d cache entries, want the last one", sessions, cached)
	}
	if n := ev.srv.liveStreams(last.ID); n != 2 {
		t.Fatalf("the last session holds %d stream states, want its 2", n)
	}
}
