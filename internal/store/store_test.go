package store

import (
	"fmt"
	"sync"
	"testing"

	"opentla/internal/state"
	"opentla/internal/value"
)

func mkState(x int64) *state.State {
	return state.FromPairs("x", value.Int(x))
}

func mkState2(x, y int64) *state.State {
	return state.FromPairs("x", value.Int(x), "y", value.Int(y))
}

func TestInternDedupes(t *testing.T) {
	st := New()
	a := mkState(1)
	b := mkState(1) // distinct object, equal state
	refA, added := st.Intern(a)
	if !added {
		t.Fatal("first intern should add")
	}
	refB, added := st.Intern(b)
	if added {
		t.Fatal("second intern of an equal state should not add")
	}
	if refA != refB {
		t.Fatalf("refs differ: %v vs %v", refA, refB)
	}
	if st.Len() != 1 {
		t.Fatalf("Len = %d, want 1", st.Len())
	}
	if got := st.State(refA); !got.Equal(a) {
		t.Fatalf("State(ref) = %v, want %v", got, a)
	}
	if _, ok := st.Lookup(mkState(1)); !ok {
		t.Error("Lookup should find the interned state")
	}
	if _, ok := st.Lookup(mkState(2)); ok {
		t.Error("Lookup should miss an un-interned state")
	}
}

// TestCollisionFallback injects a degenerate hash so every state collides,
// proving dedup falls back to structural equality: distinct states sharing a
// fingerprint must never be merged.
func TestCollisionFallback(t *testing.T) {
	constant := func(*state.State) uint64 { return 42 }
	st := NewWithHash(constant)
	const n = 20
	refs := make(map[Ref]int64)
	for i := int64(0); i < n; i++ {
		ref, added := st.Intern(mkState(i))
		if !added {
			t.Fatalf("state x=%d should be new despite the colliding hash", i)
		}
		refs[ref] = i
	}
	if len(refs) != n {
		t.Fatalf("got %d distinct refs, want %d", len(refs), n)
	}
	if st.Len() != n {
		t.Fatalf("Len = %d, want %d", st.Len(), n)
	}
	// Every ref resolves to the exact state that produced it.
	for ref, x := range refs {
		if got := st.State(ref); !got.Equal(mkState(x)) {
			t.Errorf("ref of x=%d resolves to %v", x, got)
		}
	}
	// Re-interning any of them still dedups.
	for i := int64(0); i < n; i++ {
		if _, added := st.Intern(mkState(i)); added {
			t.Errorf("re-intern of x=%d should not add", i)
		}
	}
}

// TestConcurrentIntern hammers one store from many goroutines interning
// overlapping states: exactly one goroutine must win each state, all refs
// must agree, and the final count must be exact. Run with -race.
func TestConcurrentIntern(t *testing.T) {
	st := New()
	const (
		goroutines = 8
		distinct   = 500
	)
	wins := make([][]bool, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wins[g] = make([]bool, distinct)
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < distinct; i++ {
				_, added := st.Intern(mkState2(int64(i), int64(i%7)))
				wins[g][i] = added
			}
		}(g)
	}
	wg.Wait()
	if st.Len() != distinct {
		t.Fatalf("Len = %d, want %d", st.Len(), distinct)
	}
	for i := 0; i < distinct; i++ {
		winners := 0
		for g := 0; g < goroutines; g++ {
			if wins[g][i] {
				winners++
			}
		}
		if winners != 1 {
			t.Fatalf("state %d has %d winners, want exactly 1", i, winners)
		}
	}
	// All goroutines observe the same ref for the same state.
	for i := 0; i < distinct; i++ {
		s := mkState2(int64(i), int64(i%7))
		ref1, _ := st.Lookup(s)
		ref2, added := st.Intern(s)
		if added || ref1 != ref2 {
			t.Fatalf("state %d: inconsistent refs after concurrent intern", i)
		}
	}
}

func TestIndexCollisions(t *testing.T) {
	ix := NewIndexWithHash(func(*state.State) uint64 { return 7 })
	for i := int64(0); i < 10; i++ {
		ix.Put(mkState(i), int(i))
	}
	if ix.Len() != 10 {
		t.Fatalf("Len = %d, want 10", ix.Len())
	}
	for i := int64(0); i < 10; i++ {
		id, ok := ix.Get(mkState(i))
		if !ok || id != int(i) {
			t.Errorf("Get(x=%d) = %d,%v; want %d,true", i, id, ok, i)
		}
	}
	if _, ok := ix.Get(mkState(99)); ok {
		t.Error("Get of an absent state should miss even with a colliding hash")
	}
}

// TestIndexFind pins the committed-state probe: Find returns the recorded
// pointer itself for an equal state, verifies colliding fingerprints
// structurally, and misses with nil.
func TestIndexFind(t *testing.T) {
	ix := NewIndexWithHash(func(*state.State) uint64 { return 7 })
	recorded := make([]*state.State, 5)
	for i := range recorded {
		recorded[i] = mkState(int64(i))
		ix.Put(recorded[i], i)
	}
	for i, want := range recorded {
		if got := ix.Find(mkState(int64(i))); got != want {
			t.Errorf("Find(x=%d) = %p, want the recorded pointer %p", i, got, want)
		}
	}
	if got := ix.Find(mkState(99)); got != nil {
		t.Errorf("Find of an absent state = %v, want nil", got)
	}
}

func TestSet(t *testing.T) {
	se := NewSet()
	if !se.Add(mkState(1)) {
		t.Error("first Add should report new")
	}
	if se.Add(mkState(1)) {
		t.Error("second Add of an equal state should report existing")
	}
	if !se.Has(mkState(1)) || se.Has(mkState(2)) {
		t.Error("membership wrong")
	}
	if se.Len() != 1 {
		t.Fatalf("Len = %d, want 1", se.Len())
	}
	// Colliding hash keeps distinct states distinct.
	sc := NewSetWithHash(func(*state.State) uint64 { return 0 })
	for i := int64(0); i < 5; i++ {
		if !sc.Add(mkState(i)) {
			t.Fatalf("colliding Add of x=%d should be new", i)
		}
	}
	if sc.Len() != 5 {
		t.Fatalf("colliding set Len = %d, want 5", sc.Len())
	}
}

func TestRefPacksShardAndSlot(t *testing.T) {
	st := New()
	// Enough states to populate many shards and multiple slots per shard.
	for i := int64(0); i < 1000; i++ {
		ref, added := st.Intern(mkState(i))
		if !added {
			t.Fatalf("x=%d should be new", i)
		}
		if got := st.State(ref); !got.Equal(mkState(i)) {
			t.Fatalf("round-trip of x=%d through Ref %v yields %v", i, ref, got)
		}
	}
	if st.Len() != 1000 {
		t.Fatalf("Len = %d, want 1000", st.Len())
	}
}

func ExampleStore_Intern() {
	st := New()
	s := state.FromPairs("x", value.Int(3))
	_, added := st.Intern(s)
	_, addedAgain := st.Intern(state.FromPairs("x", value.Int(3)))
	fmt.Println(added, addedAgain, st.Len())
	// Output: true false 1
}
