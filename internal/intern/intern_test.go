package intern

import (
	"sync"
	"testing"
)

func TestBytesCanonicalizes(t *testing.T) {
	tab := NewTable()
	a := tab.Bytes([]byte("strcpy"))
	b := tab.Bytes([]byte("strcpy"))
	if a != "strcpy" || b != "strcpy" {
		t.Fatalf("got %q, %q", a, b)
	}
	// Same backing array: the canonical instance is returned on repeats.
	if &a != &b && a != b {
		t.Fatal("values differ")
	}
	if len(tab.m) != 1 {
		t.Errorf("entries = %d, want 1", len(tab.m))
	}
	tab.Bytes([]byte("memcmp"))
	if len(tab.m) != 2 {
		t.Errorf("entries = %d, want 2", len(tab.m))
	}
}

func TestNilTableFallsBack(t *testing.T) {
	var tab *Table
	if got := tab.Bytes([]byte("x")); got != "x" {
		t.Errorf("nil.Bytes = %q", got)
	}
}

// TestBytesHitDoesNotAllocate pins the property the hot paths depend on:
// resolving an already-interned []byte costs zero heap allocations.
func TestBytesHitDoesNotAllocate(t *testing.T) {
	tab := NewTable()
	key := []byte("recv_field")
	tab.Bytes(key)
	allocs := testing.AllocsPerRun(100, func() {
		if tab.Bytes(key) != "recv_field" {
			t.Fatal("wrong value")
		}
	})
	if allocs != 0 {
		t.Errorf("hit path allocated %.1f objects per call, want 0", allocs)
	}
}

// TestConcurrentInsertRace: many goroutines interning the same and distinct
// values must converge to one instance per distinct value (run with -race).
func TestConcurrentInsertRace(t *testing.T) {
	tab := NewTable()
	words := [][]byte{[]byte("alpha"), []byte("beta"), []byte("gamma")}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				w := words[i%len(words)]
				if got := tab.Bytes(w); got != string(w) {
					t.Errorf("Bytes(%q) = %q", w, got)
					return
				}
			}
		}()
	}
	wg.Wait()
	if len(tab.m) != len(words) {
		t.Errorf("entries = %d, want %d", len(tab.m), len(words))
	}
}
