package store

import "testing"

// TestTieredStatsReportsBackTierUnconditionally pins the Stats
// misreporting fix: when the back tier is legitimately empty (full
// invalidation), the composite must report empty — not fall back to the
// front tier's promoted copies. The per-tier breakdown stays available
// via TierStats.
func TestTieredStatsReportsBackTierUnconditionally(t *testing.T) {
	front, back := NewMemory(0), NewMemory(0)
	tier := NewTiered(front, back)

	tier.Put(bg, fkey("fA", "ck"), result("x"))
	if tier.Stats().Entries != 1 {
		t.Fatalf("stats after put: %+v", tier.Stats())
	}

	// Drop the back tier only: the composite's truth is the back tier,
	// so it must report zero even though the front still holds a copy.
	back.InvalidateFunc("fA")
	st := tier.Stats()
	if st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("composite reported front-tier counts for an empty back tier: %+v", st)
	}
	f, b := tier.TierStats()
	if f.Entries != 1 {
		t.Fatalf("front tier breakdown lost: %+v", f)
	}
	if b.Entries != 0 {
		t.Fatalf("back tier breakdown wrong: %+v", b)
	}
}
