package store

import "testing"

// fkey builds a key with an explicit function hash and checker
// fingerprint, so tests can lay out entries across both axes.
func fkey(funcHash, ckFP string) Key {
	return Key{FuncHash: funcHash, CheckerFP: ckFP, EngineFP: "eng"}
}

func TestMemoryInvalidateFuncDropsAllCheckersOfThatFunc(t *testing.T) {
	m := NewMemory(0)
	m.Put(bg, fkey("fA", "ck1"), result("a1"))
	m.Put(bg, fkey("fA", "ck2"), result("a2"))
	m.Put(bg, fkey("fB", "ck1"), result("b1"))

	if n := m.InvalidateFunc("fA"); n != 2 {
		t.Fatalf("invalidated %d entries, want 2", n)
	}
	if _, ok := m.Get(bg, fkey("fA", "ck1")); ok {
		t.Fatal("fA/ck1 survived invalidation")
	}
	if _, ok := m.Get(bg, fkey("fA", "ck2")); ok {
		t.Fatal("fA/ck2 survived invalidation")
	}
	if _, ok := m.Get(bg, fkey("fB", "ck1")); !ok {
		t.Fatal("fB/ck1 dropped by unrelated invalidation")
	}
	s := m.Stats()
	if s.Invalidated != 2 || s.Entries != 1 {
		t.Fatalf("stats = %+v", s)
	}
	if n := m.InvalidateFunc("no-such-hash"); n != 0 {
		t.Fatalf("invalidating an unknown hash dropped %d entries", n)
	}
}

func TestMemoryEvictionMaintainsFuncIndex(t *testing.T) {
	m := NewMemory(1) // one-byte budget: only the newest entry survives
	m.Put(bg, fkey("fA", "ck1"), result("a"))
	m.Put(bg, fkey("fB", "ck1"), result("b")) // evicts fA
	if n := m.InvalidateFunc("fA"); n != 0 {
		t.Fatalf("evicted entry still indexed: %d", n)
	}
	if n := m.InvalidateFunc("fB"); n != 1 {
		t.Fatalf("live entry not indexed: %d", n)
	}
}

func TestTieredInvalidateFuncForwardsToBothTiers(t *testing.T) {
	tiered := NewTiered(NewMemory(0), newTestSegDisk(t, t.TempDir()))
	tiered.Put(bg, fkey("fA", "ck"), result("a")) // write-through: both tiers
	if n := tiered.InvalidateFunc("fA"); n != 2 {
		t.Fatalf("tiered invalidation dropped %d entries, want 2 (one per tier)", n)
	}
	if _, ok := tiered.Get(bg, fkey("fA", "ck")); ok {
		t.Fatal("entry survived tiered invalidation")
	}
	if s := tiered.Stats(); s.Invalidated != 2 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestTieredBulkInvalidateForwardsToBothTiers(t *testing.T) {
	tiered := NewTiered(NewMemory(0), newTestSegDisk(t, t.TempDir()))
	tiered.Put(bg, fkey("fA", "ck"), result("a"))
	tiered.Put(bg, fkey("fB", "ck"), result("b"))
	tiered.Put(bg, fkey("fC", "ck"), result("c"))
	if n := tiered.InvalidateFuncs([]string{"fA", "fB"}); n != 4 {
		t.Fatalf("bulk tiered invalidation dropped %d entries, want 4 (two hashes x two tiers)", n)
	}
	if _, ok := tiered.Get(bg, fkey("fA", "ck")); ok {
		t.Fatal("entry survived bulk tiered invalidation")
	}
	if _, ok := tiered.Get(bg, fkey("fC", "ck")); !ok {
		t.Fatal("unrelated entry dropped")
	}
}
