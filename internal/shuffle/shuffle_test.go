package shuffle

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"biglake/internal/sim"
)

func newSvc() *Service { return New(sim.NewClock()) }

func TestSessionLifecycle(t *testing.T) {
	s := newSvc()
	id, err := s.CreateSession(4)
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := s.Partitions(id); n != 4 {
		t.Fatalf("partitions = %d", n)
	}
	if err := s.Write(id, 1, []byte("a")); err != nil {
		t.Fatal(err)
	}
	if err := s.Write(id, 1, []byte("b")); err != nil {
		t.Fatal(err)
	}
	// Reads before seal fail.
	if _, err := s.Read(id, 1); err == nil {
		t.Fatal("read before seal should fail")
	}
	s.Seal(id)
	got, err := s.Read(id, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || string(got[0]) != "a" || string(got[1]) != "b" {
		t.Fatalf("read = %q", got)
	}
	empty, _ := s.Read(id, 0)
	if len(empty) != 0 {
		t.Fatal("untouched partition should be empty")
	}
}

func TestWriteAfterSealFails(t *testing.T) {
	s := newSvc()
	id, _ := s.CreateSession(1)
	s.Seal(id)
	if err := s.Write(id, 0, []byte("x")); !errors.Is(err, ErrSealed) {
		t.Fatalf("err = %v", err)
	}
}

func TestBadSessionAndPartition(t *testing.T) {
	s := newSvc()
	if _, err := s.CreateSession(0); err == nil {
		t.Fatal("zero partitions should fail")
	}
	if err := s.Write("ghost", 0, nil); !errors.Is(err, ErrNoSession) {
		t.Fatalf("err = %v", err)
	}
	id, _ := s.CreateSession(2)
	if err := s.Write(id, 5, nil); !errors.Is(err, ErrBadPartition) {
		t.Fatalf("err = %v", err)
	}
	s.Seal(id)
	if _, err := s.Read(id, -1); !errors.Is(err, ErrBadPartition) {
		t.Fatalf("err = %v", err)
	}
	if _, err := s.Read("ghost", 0); !errors.Is(err, ErrNoSession) {
		t.Fatalf("err = %v", err)
	}
}

func TestPayloadsAreCopied(t *testing.T) {
	s := newSvc()
	id, _ := s.CreateSession(1)
	buf := []byte("hello")
	s.Write(id, 0, buf)
	buf[0] = 'X'
	s.Seal(id)
	got, _ := s.Read(id, 0)
	if string(got[0]) != "hello" {
		t.Fatal("shuffle must copy payloads")
	}
}

func TestCheckpointRestore(t *testing.T) {
	s := newSvc()
	id, _ := s.CreateSession(2)
	s.Write(id, 0, []byte("keep"))
	if err := s.Checkpoint(id); err != nil {
		t.Fatal(err)
	}
	s.Write(id, 0, []byte("discard"))
	s.Write(id, 1, []byte("discard2"))
	if err := s.Restore(id); err != nil {
		t.Fatal(err)
	}
	s.Seal(id)
	p0, _ := s.Read(id, 0)
	p1, _ := s.Read(id, 1)
	if len(p0) != 1 || string(p0[0]) != "keep" || len(p1) != 0 {
		t.Fatalf("restore: p0=%q p1=%q", p0, p1)
	}
}

func TestRestoreWithoutCheckpoint(t *testing.T) {
	s := newSvc()
	id, _ := s.CreateSession(1)
	if err := s.Restore(id); err == nil {
		t.Fatal("restore without checkpoint should fail")
	}
	if err := s.Checkpoint("ghost"); !errors.Is(err, ErrNoSession) {
		t.Fatalf("err = %v", err)
	}
}

func TestRestoreUnseals(t *testing.T) {
	s := newSvc()
	id, _ := s.CreateSession(1)
	s.Checkpoint(id)
	s.Seal(id)
	s.Restore(id)
	if err := s.Write(id, 0, []byte("x")); err != nil {
		t.Fatalf("write after restore: %v", err)
	}
}

func TestDrop(t *testing.T) {
	s := newSvc()
	id, _ := s.CreateSession(1)
	s.Drop(id)
	if _, err := s.Partitions(id); !errors.Is(err, ErrNoSession) {
		t.Fatalf("err = %v", err)
	}
}

func TestConcurrentWriters(t *testing.T) {
	s := newSvc()
	id, _ := s.CreateSession(8)
	var wg sync.WaitGroup
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				if err := s.Write(id, (w+i)%8, []byte(fmt.Sprintf("%d-%d", w, i))); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	s.Seal(id)
	total := 0
	for p := 0; p < 8; p++ {
		got, err := s.Read(id, p)
		if err != nil {
			t.Fatal(err)
		}
		total += len(got)
	}
	if total != 1600 {
		t.Fatalf("total payloads = %d", total)
	}
}
