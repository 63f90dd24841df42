// Package victim holds the eviction machinery shared by the cache
// (internal/core) and the what-if ghost caches (internal/whatif): the
// paper's importance formula and an indexed min-heap that yields the
// least valuable resident entry in O(log n) per eviction instead of a
// scan of every entry.
package victim

import (
	"cmp"
	"time"
)

// Importance is the paper's cache-entry usefulness metric:
//
//	importance = computation overhead × access frequency / entry size
//
// (§3.3). A non-positive size counts as one byte. The result never
// decreases while accesses grow and cost and size stay fixed, which is
// what lets Heap re-key importance scores lazily.
func Importance(cost time.Duration, accesses int64, size int) float64 {
	if size <= 0 {
		size = 1
	}
	return cost.Seconds() * float64(accesses) / float64(size)
}

// Heap is an indexed binary min-heap of eviction candidates ordered by
// (key, id): the lowest score wins and the lower id breaks ties. Each
// item records its own position through the pos accessor (1 + slot
// index, 0 while not resident), so Remove is O(log n) without a
// lookup table.
//
// A score may rise while its item is resident but must never fall.
// Every stored key is then a lower bound on its item's current score,
// and Victim re-keys lazily: it re-reads the head's score, and when
// the score has risen it stores the new key, sifts the head down and
// looks again. A head whose score is unchanged is the exact minimum,
// since no other item's current score can be below its stored key.
// Score changes therefore cost nothing until they matter for an
// eviction.
//
// A Heap is not safe for concurrent use; its owner serializes calls.
// The score function itself may read fields that other goroutines
// advance atomically.
type Heap[T any, K cmp.Ordered] struct {
	slots []slot[T, K]
	score func(T) K
	id    func(T) uint64
	pos   func(T) *int
}

type slot[T any, K cmp.Ordered] struct {
	key  K
	id   uint64
	item T
}

// NewHeap returns an empty heap. score reads an item's current score,
// id its immutable tie-break identity, and pos the address of the
// item's position field, which must be 0 before Admit.
func NewHeap[T any, K cmp.Ordered](score func(T) K, id func(T) uint64, pos func(T) *int) *Heap[T, K] {
	return &Heap[T, K]{score: score, id: id, pos: pos}
}

// Len returns the number of resident items.
func (h *Heap[T, K]) Len() int { return len(h.slots) }

// Admit adds x keyed by its current score. x must not be resident.
func (h *Heap[T, K]) Admit(x T) {
	h.slots = append(h.slots, slot[T, K]{key: h.score(x), id: h.id(x), item: x})
	i := len(h.slots) - 1
	*h.pos(x) = i + 1
	h.up(i)
}

// Remove drops x; it is a no-op when x is not resident.
func (h *Heap[T, K]) Remove(x T) {
	p := h.pos(x)
	i := *p - 1
	if i < 0 {
		return
	}
	*p = 0
	last := len(h.slots) - 1
	if i != last {
		h.slots[i] = h.slots[last]
		*h.pos(h.slots[i].item) = i + 1
	}
	var zero slot[T, K]
	h.slots[last] = zero // drop the item reference
	h.slots = h.slots[:last]
	if i < last {
		if !h.up(i) {
			h.down(i)
		}
	}
}

// Victim returns the resident item with the lowest current score
// (lowest id on ties) without removing it, plus the number of stale
// keys it re-keyed on the way. It returns the zero T when the heap is
// empty.
func (h *Heap[T, K]) Victim() (x T, rekeys int) {
	for len(h.slots) > 0 {
		head := &h.slots[0]
		cur := h.score(head.item)
		if !(cur > head.key) { // not "cur <= key": a NaN must not spin
			return head.item, rekeys
		}
		head.key = cur
		rekeys++
		h.down(0)
	}
	return x, rekeys
}

func (h *Heap[T, K]) less(i, j int) bool {
	a, b := &h.slots[i], &h.slots[j]
	return a.key < b.key || (a.key == b.key && a.id < b.id)
}

func (h *Heap[T, K]) swap(i, j int) {
	h.slots[i], h.slots[j] = h.slots[j], h.slots[i]
	*h.pos(h.slots[i].item) = i + 1
	*h.pos(h.slots[j].item) = j + 1
}

// up sifts slot i toward the root and reports whether it moved.
func (h *Heap[T, K]) up(i int) bool {
	moved := false
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h.swap(i, parent)
		i = parent
		moved = true
	}
	return moved
}

// down sifts slot i toward the leaves.
func (h *Heap[T, K]) down(i int) {
	n := len(h.slots)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		m := l
		if r := l + 1; r < n && h.less(r, l) {
			m = r
		}
		if !h.less(m, i) {
			return
		}
		h.swap(i, m)
		i = m
	}
}
