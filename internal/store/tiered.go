package store

import (
	"context"
	"sync"

	"knighter/internal/engine"
)

// Tiered composes a fast front tier (typically Memory) with a larger
// back tier (typically SegmentDisk). Gets probe front-to-back and promote back
// hits into the front tier; Puts write through to both.
type Tiered struct {
	front Store
	back  Store
	mu    sync.Mutex
	stats Stats
}

// NewTiered composes front and back into one store.
func NewTiered(front, back Store) *Tiered {
	return &Tiered{front: front, back: back}
}

// Get implements Store.
func (t *Tiered) Get(ctx context.Context, k Key) (*engine.Result, bool) {
	if r, ok := t.front.Get(ctx, k); ok {
		t.count(func(s *Stats) { s.Hits++ })
		return r, true
	}
	if r, ok := t.back.Get(ctx, k); ok {
		t.front.Put(ctx, k, r)
		t.count(func(s *Stats) { s.Hits++ })
		return r, true
	}
	t.count(func(s *Stats) { s.Misses++ })
	return nil, false
}

// Put implements Store.
func (t *Tiered) Put(ctx context.Context, k Key, r *engine.Result) {
	t.front.Put(ctx, k, r)
	t.back.Put(ctx, k, r)
	t.count(func(s *Stats) { s.Puts++ })
}

// Stats implements Store: the composite's own hit/miss/put counters,
// with entries and evictions aggregated from the tiers. Entries and
// Bytes both report the back tier alone, unconditionally: Puts write
// through and Gets promote, so the back tier is a superset of the front
// and summing the tiers would double-count every promoted entry. When
// the back tier is legitimately empty (right after a full invalidation,
// or a back tier that only holds what survives its budget) the
// composite reports empty too — falling back to front-tier counts here
// inflated /stats and /metrics with entries the back tier did not hold.
// Callers that want the per-tier breakdown use TierStats.
func (t *Tiered) Stats() Stats {
	t.mu.Lock()
	s := t.stats
	t.mu.Unlock()
	front, back := t.front.Stats(), t.back.Stats()
	s.Evictions = front.Evictions + back.Evictions
	s.Invalidated = front.Invalidated + back.Invalidated
	s.Expired = front.Expired + back.Expired
	s.Entries = back.Entries
	s.Bytes = back.Bytes
	return s
}

// InvalidateFunc implements Invalidator by forwarding to every tier
// that supports invalidation, returning the total entries dropped.
func (t *Tiered) InvalidateFunc(funcHash string) int {
	return t.InvalidateFuncs([]string{funcHash})
}

// InvalidateFuncs implements BulkInvalidator: each tier gets the whole
// hash set in one call (falling back to per-hash invalidation for tiers
// without a bulk path), so a changeset's orphan set costs one pass per
// tier.
func (t *Tiered) InvalidateFuncs(funcHashes []string) int {
	return invalidateAll(t.front, funcHashes) + invalidateAll(t.back, funcHashes)
}

// TierStats exposes the per-tier snapshots (front, back) for
// observability endpoints.
func (t *Tiered) TierStats() (Stats, Stats) {
	return t.front.Stats(), t.back.Stats()
}

func (t *Tiered) count(f func(*Stats)) {
	t.mu.Lock()
	f(&t.stats)
	t.mu.Unlock()
}
