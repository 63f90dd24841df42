package core

import (
	"fmt"

	"repro/internal/victim"
)

// PolicyKind names a cache-entry replacement strategy. The paper's
// evaluation (§5.3, Figure 8) compares the importance-based strategy
// against LRU and random discard.
type PolicyKind string

// The replacement strategies of §5.3.
const (
	PolicyImportance PolicyKind = "importance" // Potluck's default
	PolicyLRU        PolicyKind = "lru"        // least recently used
	PolicyRandom     PolicyKind = "random"     // random discard
	PolicyFIFO       PolicyKind = "fifo"       // insertion order (extra baseline)
)

// A Policy selects the victim entry when the cache is full. It builds
// the incremental victim set the cache maintains as entries are
// admitted and removed, so choosing a victim never scans the cache.
type Policy interface {
	// Name returns the policy's kind.
	Name() PolicyKind
	// newSet returns an empty victim set. draw returns a uniform int in
	// [0, n); only the random policy consumes it.
	newSet(draw func(n int) int) victimSet
}

// victimSet is the cache's incremental eviction-candidate set. The
// cache admits an entry once it is published and reachable, removes it
// after the winning removal, and asks for a victim when over capacity.
// All calls are serialized by Cache.admitMu.
type victimSet interface {
	Admit(e *entry)
	Remove(e *entry) // no-op for an entry that is not resident
	// Victim returns the entry to evict (nil when empty) without
	// removing it, plus how many stale keys it re-keyed to find it.
	Victim() (e *entry, rekeys int)
	Len() int
}

// NewPolicy constructs the named policy.
func NewPolicy(kind PolicyKind) (Policy, error) {
	switch kind {
	case PolicyImportance, "":
		return importancePolicy{}, nil
	case PolicyLRU:
		return lruPolicy{}, nil
	case PolicyRandom:
		return randomPolicy{}, nil
	case PolicyFIFO:
		return fifoPolicy{}, nil
	}
	return nil, fmt.Errorf("core: unknown eviction policy %q", kind)
}

func entryID(e *entry) uint64 { return uint64(e.id) }
func entrySlot(e *entry) *int { return &e.slot }

// importancePolicy evicts the entry with the lowest importance value
// (§3.6: "the least important entry will be evicted"), lower id first
// on ties. Importance only rises while an entry is resident, so the
// heap re-keys lazily (see victim.Heap).
type importancePolicy struct{}

func (importancePolicy) Name() PolicyKind { return PolicyImportance }

func (importancePolicy) newSet(func(int) int) victimSet {
	return victim.NewHeap((*entry).importance, entryID, entrySlot)
}

// lruPolicy evicts the least recently used entry, lower id first on
// ties. lastAccess only moves forward (entry.touch), so the heap
// re-keys lazily like importance.
type lruPolicy struct{}

func (lruPolicy) Name() PolicyKind { return PolicyLRU }

func (lruPolicy) newSet(func(int) int) victimSet {
	return victim.NewHeap(func(e *entry) int64 { return e.lastAccess.Load() }, entryID, entrySlot)
}

// fifoPolicy evicts the oldest entry by insertion time, lower id first
// on ties. Its keys never change, so it never re-keys.
type fifoPolicy struct{}

func (fifoPolicy) Name() PolicyKind { return PolicyFIFO }

func (fifoPolicy) newSet(func(int) int) victimSet {
	return victim.NewHeap(func(e *entry) int64 { return e.insertedAt.UnixNano() }, entryID, entrySlot)
}

// randomPolicy evicts a uniformly random resident entry.
type randomPolicy struct{}

func (randomPolicy) Name() PolicyKind { return PolicyRandom }

func (randomPolicy) newSet(draw func(int) int) victimSet { return &randomSet{draw: draw} }

// randomSet is an indexed slice with swap-remove. Its order follows
// the admission and removal sequence, so with the cache's seeded rng a
// replay evicts the same entries every run.
type randomSet struct {
	items []*entry
	draw  func(n int) int
}

func (s *randomSet) Admit(e *entry) {
	s.items = append(s.items, e)
	e.slot = len(s.items)
}

func (s *randomSet) Remove(e *entry) {
	i := e.slot - 1
	if i < 0 {
		return
	}
	e.slot = 0
	last := len(s.items) - 1
	if i != last {
		s.items[i] = s.items[last]
		s.items[i].slot = i + 1
	}
	s.items[last] = nil
	s.items = s.items[:last]
}

func (s *randomSet) Victim() (*entry, int) {
	if len(s.items) == 0 {
		return nil, 0
	}
	return s.items[s.draw(len(s.items))], 0
}

func (s *randomSet) Len() int { return len(s.items) }
