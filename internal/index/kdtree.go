package index

import (
	"cmp"
	"math"
	"slices"

	"repro/internal/vec"
)

// leafMax is the number of points a leaf holds before it splits.
const leafMax = 16

// blockFloats bounds a key block (see kdLeaf): 512 floats is 4 KB.
const blockFloats = 512

// sideLeaf is the leaf index that KDTree.where records for a key on the
// side list.
const sideLeaf int32 = -1

// KDTree is an exact, bucketed k-dimensional tree (paper §3.6: "KD-trees
// ... support spatial indexing and efficient nearest neighbor and range
// searches").
//
// Each internal node splits its points on the axis along which they
// spread widest, at the median: points with key[axis] < split go left,
// the rest go right. Keys often mix units (a pose's metres and radians),
// so splitting on the widest axis, rather than cycling through the axes,
// keeps every level separating something. Leaves hold up to leafMax
// points in flat storage: their IDs in one slice and their keys back to
// back in fixed-size blocks of pointer-free memory, so a search scans
// contiguous memory and the garbage collector has no pointers to trace
// in it. A block holds as many keys, up to leafMax, as fit in 4 KB: all
// 16 of a 6-d leaf, or one 768-d key. A leaf's storage therefore exceeds
// its keys by less than one block, and a high-dimensional key is stored
// as compactly as a clone of it. Blocks a leaf empties are handed to the
// next leaf that needs one, so churn makes no garbage.
//
// A search prunes a subtree when the query's distance to its splitting
// plane exceeds the best candidate so far, which is exact for the
// Euclidean, Manhattan and Chebyshev metrics; under any other metric it
// scores every point and stays correct.
//
// Remove deletes the point from its leaf: the leaf's last point moves
// into its slot. An insert into a full leaf splits it in two. Leaves that
// drain are not merged one at a time; instead, once leaves average fewer
// than leafMax/4 points, the whole tree is rebuilt balanced. A rebuild is
// due at most once per n/2 mutations of an n-point tree, so maintenance
// costs amortised O(log n) per mutation and the node and leaf counts stay
// O(n).
//
// The tree's dimensionality is that of the first key it holds. A key of
// any other dimensionality, which every metric puts at +Inf from a
// tree-dimension query, goes on a side list that searches scan linearly;
// a rebuild adopts the most common dimensionality.
type KDTree struct {
	probeCounter
	metric   vec.Metric
	prunable bool
	euclid   bool // metric is Euclidean: Nearest searches in squared space

	dim    int   // dimensionality of tree points; 0 while the tree is empty
	shift  uint  // a key block holds 1<<shift points
	root   int32 // a child reference, see kdNode
	nodes  []kdNode
	leaves []kdLeaf
	live   int // points in the tree, excluding the side list

	sideIDs  []ID
	sideKeys []vec.Vector

	// where locates every ID: its leaf index in the high 32 bits (sideLeaf
	// for the side list) and its slot in the low 32.
	where map[ID]uint64

	ops    int // mutations since the last rebuild
	builtN int // points at the last rebuild

	spare [][]float64 // emptied key blocks, at most leafMax, for reuse

	perm []int32   // scratch for splits, used under the write lock only
	flat []float64 // scratch for a splitting leaf's keys, likewise
	span []float64 // scratch for per-axis bounds, likewise
}

// kdNode is an internal node. A child reference c >= 0 indexes
// KDTree.nodes; c < 0 refers to leaf ^c.
type kdNode struct {
	split       float64
	axis        int32
	left, right int32
}

// kdLeaf holds its points' IDs and, in the same order, their keys: point
// i is at offset (i mod 1<<shift)·dim of block i>>shift.
type kdLeaf struct {
	ids    []ID
	blocks [][]float64
}

// NewKDTree returns an empty KD-tree using metric m.
func NewKDTree(m vec.Metric) *KDTree {
	var prunable, euclid bool
	switch m.(type) {
	case vec.EuclideanMetric:
		prunable, euclid = true, true
	case vec.ManhattanMetric, vec.ChebyshevMetric:
		prunable = true
	}
	return &KDTree{metric: m, prunable: prunable, euclid: euclid, where: make(map[ID]uint64)}
}

func packLoc(leaf int32, slot int) uint64 { return uint64(uint32(leaf))<<32 | uint64(uint32(slot)) }

func unpackLoc(loc uint64) (leaf int32, slot int) { return int32(loc >> 32), int(uint32(loc)) }

// key returns point i of a leaf, capped so that an append to it cannot
// spill into the next point.
func (t *KDTree) key(lf *kdLeaf, i int) vec.Vector {
	off := (i & (1<<t.shift - 1)) * t.dim
	return lf.blocks[i>>t.shift][off : off+t.dim : off+t.dim]
}

// setDim fixes the tree's dimensionality and the block size that goes
// with it: the most points, up to leafMax, whose keys fit blockFloats.
func (t *KDTree) setDim(dim int) {
	t.dim, t.shift = dim, 0
	for 2<<t.shift <= leafMax && (2<<t.shift)*dim <= blockFloats {
		t.shift++
	}
	t.spare = nil
}

// push appends a point to a leaf, taking a key block when the last one
// is full, and records its location.
func (t *KDTree) push(lf *kdLeaf, li int32, id ID, key []float64) {
	i := len(lf.ids)
	if i>>t.shift == len(lf.blocks) {
		var blk []float64
		if n := len(t.spare); n > 0 {
			blk, t.spare = t.spare[n-1], t.spare[:n-1]
		} else {
			blk = make([]float64, t.dim<<t.shift)
		}
		lf.blocks = append(lf.blocks, blk)
	}
	lf.ids = append(lf.ids, id)
	copy(t.key(lf, i), key)
	t.where[id] = packLoc(li, i)
}

// Insert implements Index. Inserting a live ID replaces its key.
func (t *KDTree) Insert(id ID, key vec.Vector) error {
	if len(key) == 0 {
		return ErrEmptyKey
	}
	t.Remove(id)
	if t.dim == 0 {
		t.setDim(len(key))
		t.leaves = append(t.leaves[:0], kdLeaf{})
		t.root = ^int32(0)
	}
	t.ops++
	if len(key) != t.dim {
		t.where[id] = packLoc(sideLeaf, len(t.sideIDs))
		t.sideIDs = append(t.sideIDs, id)
		t.sideKeys = append(t.sideKeys, key.Clone())
		t.maybeRebuild()
		return nil
	}
	parent, right, r := int32(-1), false, t.root
	for r >= 0 {
		n := &t.nodes[r]
		parent, right = r, key[n.axis] >= n.split
		if right {
			r = n.right
		} else {
			r = n.left
		}
	}
	li := ^r
	if len(t.leaves[li].ids) >= leafMax {
		if n, ok := t.splitLeaf(li, parent, right); ok {
			if key[n.axis] >= n.split {
				li = ^n.right
			} else {
				li = ^n.left
			}
		}
	}
	t.push(&t.leaves[li], li, id, key)
	t.live++
	t.maybeRebuild()
	return nil
}

// splitLeaf turns the full leaf li into an internal node over two
// leaves and returns that node. parent and right locate the reference to
// li (parent < 0: the root). The points below the split stay in li; the
// rest move to a new leaf. A leaf whose points all coincide cannot split
// (ok is false); it grows past leafMax, and its excess is live points,
// not slack.
func (t *KDTree) splitLeaf(li, parent int32, right bool) (_ kdNode, ok bool) {
	lf := &t.leaves[li]
	n, dim := len(lf.ids), t.dim
	flat := slices.Grow(t.flat[:0], n*dim)[:n*dim]
	perm := t.perm[:0]
	for i := 0; i < n; i++ {
		copy(flat[i*dim:], t.key(lf, i))
		perm = append(perm, int32(i))
	}
	t.flat, t.perm = flat, perm
	axis, split, m, ok := t.chooseSplit(flat, perm)
	if !ok {
		return kdNode{}, false
	}
	ri := int32(len(t.leaves))
	rl := kdLeaf{ids: make([]ID, 0, leafMax)}
	for _, p := range perm[m:] {
		t.push(&rl, ri, lf.ids[p], flat[int(p)*dim:int(p+1)*dim])
	}
	// Drop the moved points from li, highest slot first: every slot above
	// the one dropped then holds a point that stays, so each drop moves a
	// staying point down.
	slices.SortFunc(perm[m:], func(a, b int32) int { return cmp.Compare(b, a) })
	for _, slot := range perm[m:] {
		t.dropSlot(li, int(slot))
	}
	t.leaves = append(t.leaves, rl)
	nd := kdNode{split: split, axis: int32(axis), left: ^li, right: ^ri}
	ni := int32(len(t.nodes))
	t.nodes = append(t.nodes, nd)
	switch {
	case parent < 0:
		t.root = ni
	case right:
		t.nodes[parent].right = ni
	default:
		t.nodes[parent].left = ni
	}
	return nd, true
}

// chooseSplit picks the axis along which the points perm (indices into
// keys) spread widest, sorts perm along it, and returns the split value
// and the index m in perm where it falls: perm[:m] are the points below
// split. m is the boundary between distinct values nearest the median,
// so both sides are non-empty. ok is false when all points coincide.
func (t *KDTree) chooseSplit(keys []float64, perm []int32) (axis int, split float64, m int, ok bool) {
	dim := t.dim
	lo := slices.Grow(t.span[:0], 2*dim)[:2*dim]
	t.span = lo
	hi := lo[dim:]
	lo = lo[:dim]
	first := keys[int(perm[0])*dim:]
	copy(lo, first[:dim])
	copy(hi, first[:dim])
	for _, p := range perm[1:] {
		k := keys[int(p)*dim : int(p)*dim+dim]
		for a, v := range k {
			if v < lo[a] {
				lo[a] = v
			} else if v > hi[a] {
				hi[a] = v
			}
		}
	}
	widest := 0.0
	for a := range lo {
		if s := hi[a] - lo[a]; s > widest {
			axis, widest = a, s
		}
	}
	if widest == 0 {
		return 0, 0, 0, false
	}
	at := func(i int) float64 { return keys[int(perm[i])*dim+axis] }
	slices.SortFunc(perm, func(a, b int32) int {
		return cmp.Compare(keys[int(a)*dim+axis], keys[int(b)*dim+axis])
	})
	// The nearest boundary to the median: an index m with
	// at(m-1) < at(m), searched outward from len/2.
	n, mid := len(perm), len(perm)/2
	for off := 0; off < n; off++ {
		if i := mid + off; i < n && at(i-1) < at(i) {
			return axis, at(i), i, true
		}
		if i := mid - off; i >= 1 && i < n && at(i-1) < at(i) {
			return axis, at(i), i, true
		}
	}
	return 0, 0, 0, false
}

// dropSlot removes the point in a leaf slot by moving the leaf's last
// point into it, and keeps a key block it empties for reuse. The dropped
// point's location is the caller's to update.
func (t *KDTree) dropSlot(li int32, slot int) {
	lf := &t.leaves[li]
	last := len(lf.ids) - 1
	if slot != last {
		lf.ids[slot] = lf.ids[last]
		copy(t.key(lf, slot), t.key(lf, last))
		t.where[lf.ids[slot]] = packLoc(li, slot)
	}
	lf.ids = lf.ids[:last]
	if last&(1<<t.shift-1) == 0 {
		b := len(lf.blocks) - 1
		if len(t.spare) < leafMax {
			t.spare = append(t.spare, lf.blocks[b])
		}
		lf.blocks[b] = nil
		lf.blocks = lf.blocks[:b]
	}
}

// Remove implements Index.
func (t *KDTree) Remove(id ID) {
	loc, ok := t.where[id]
	if !ok {
		return
	}
	delete(t.where, id)
	li, slot := unpackLoc(loc)
	if li == sideLeaf {
		last := len(t.sideIDs) - 1
		if slot != last {
			t.sideIDs[slot], t.sideKeys[slot] = t.sideIDs[last], t.sideKeys[last]
			t.where[t.sideIDs[slot]] = packLoc(sideLeaf, slot)
		}
		t.sideKeys[last] = nil
		t.sideIDs, t.sideKeys = t.sideIDs[:last], t.sideKeys[:last]
	} else {
		t.dropSlot(li, slot)
		t.live--
	}
	t.ops++
	t.maybeRebuild()
}

// maybeRebuild rebuilds the tree when its leaves average fewer than
// leafMax/4 points or the side list outgrows it, but no sooner than
// builtN/2 mutations after the last rebuild: that spacing is what makes
// the O(n log n) rebuild amortised O(log n), and it holds the leaf count
// under 1.5·builtN + 1 ≤ 3n + 1 in between.
func (t *KDTree) maybeRebuild() {
	if t.live == 0 || t.ops >= t.builtN/2 &&
		(len(t.leaves) > t.live/(leafMax/4)+1 || len(t.sideIDs) > 2*t.live+leafMax) {
		t.rebuild()
	}
}

// rebuild builds a balanced tree over every live point, adopting the most
// common key dimensionality, and compacts all storage into fresh memory.
func (t *KDTree) rebuild() {
	// The most common dimensionality wins; a tie keeps the tree's own,
	// else goes to the smallest.
	dim, most := t.dim, t.live
	if len(t.sideKeys) > 0 {
		count := make(map[int]int)
		for _, k := range t.sideKeys {
			count[len(k)]++
		}
		for d, c := range count {
			if c > most || c == most && d < dim && dim != t.dim {
				dim, most = d, c
			}
		}
	}
	n := most
	ids, keys := make([]ID, 0, n), make([]float64, 0, n*dim)
	var sideIDs []ID
	var sideKeys []vec.Vector
	add := func(id ID, k vec.Vector) {
		if len(k) == dim {
			ids, keys = append(ids, id), append(keys, k...)
		} else {
			sideIDs, sideKeys = append(sideIDs, id), append(sideKeys, k.Clone())
		}
	}
	for li := range t.leaves {
		lf := &t.leaves[li]
		for i, id := range lf.ids {
			add(id, t.key(lf, i))
		}
	}
	for i, k := range t.sideKeys {
		add(t.sideIDs[i], k)
	}

	t.where = make(map[ID]uint64, n+len(sideIDs))
	t.sideIDs, t.sideKeys = sideIDs, sideKeys
	for i, id := range sideIDs {
		t.where[id] = packLoc(sideLeaf, i)
	}
	t.nodes = make([]kdNode, 0, n/(leafMax/2))
	t.leaves = make([]kdLeaf, 0, n/(leafMax/2)+1)
	t.live, t.ops, t.builtN = n, 0, n+len(sideIDs)
	if n == 0 {
		t.dim, t.root = 0, 0
		return
	}
	t.setDim(dim)
	perm := make([]int32, n)
	for i := range perm {
		perm[i] = int32(i)
	}
	t.root = t.build(ids, keys, perm)
}

// build builds a subtree over the points perm of ids and keys (dim floats
// per point) and returns its child reference.
func (t *KDTree) build(ids []ID, keys []float64, perm []int32) int32 {
	if len(perm) > leafMax {
		if axis, split, m, ok := t.chooseSplit(keys, perm); ok {
			ni := int32(len(t.nodes))
			t.nodes = append(t.nodes, kdNode{split: split, axis: int32(axis)})
			left := t.build(ids, keys, perm[:m])
			right := t.build(ids, keys, perm[m:])
			t.nodes[ni].left, t.nodes[ni].right = left, right
			return ni
		}
	}
	li := int32(len(t.leaves))
	lf := kdLeaf{ids: make([]ID, 0, max(leafMax, len(perm)))}
	for _, p := range perm {
		t.push(&lf, li, ids[p], keys[int(p)*t.dim:int(p+1)*t.dim])
	}
	t.leaves = append(t.leaves, lf)
	return ^li
}

// Nearest implements Index. It allocates nothing: Nearest runs on every
// cache lookup AND every put (the tuner's pre-insert neighbour probe).
func (t *KDTree) Nearest(key vec.Vector) (Neighbor, bool) {
	n, _, ok := t.NearestProbed(key)
	return n, ok
}

// NearestProbed implements ProbedSearcher: the probe count is the tree
// nodes visited (internal and leaf) plus the points scored.
func (t *KDTree) NearestProbed(key vec.Vector) (Neighbor, int, bool) {
	if t.Len() == 0 {
		return Neighbor{}, 0, false
	}
	// Every stored point beats the initial best, at +Inf on the min-ID
	// tie-break, so a query no stored key matches in dimensionality
	// still gets the min-ID entry, as from a linear scan.
	b := nnBest{Neighbor: Neighbor{ID: math.MaxUint64, Dist: math.Inf(1)}, bound: math.Inf(1)}
	probes := 0
	switch {
	case t.live == 0:
	case len(key) != t.dim || !t.prunable:
		for li := range t.leaves {
			lf := &t.leaves[li]
			probes += 1 + len(lf.ids)
			for i, id := range lf.ids {
				b.offer(t, id, t.key(lf, i), t.score(key, t.key(lf, i)))
			}
		}
	default:
		t.nearest(t.root, key, &b, &probes)
	}
	for i, k := range t.sideKeys {
		b.offer(t, t.sideIDs[i], k, t.score(key, k))
	}
	probes += len(t.sideKeys)
	t.countQuery(probes)
	return b.Neighbor, probes, true
}

// nnBest is Nearest's running best. Under the Euclidean metric points are
// scored in squared distance, which saves a square root per point and
// lets a sum stop once it passes the bound; Dist is still the square root
// of the winner's exact sum, as Distance computes it, and ties are ties
// of that rounded root, so the winner is a linear scan's.
type nnBest struct {
	Neighbor
	// bound is the largest score, in the space points are scored in, that
	// can still win or tie: Dist, or under the Euclidean metric a squared
	// distance a hair above Dist² (tieBound).
	bound float64
}

// offer considers a point of score s: its squared distance under the
// Euclidean metric, its distance otherwise.
func (b *nnBest) offer(t *KDTree, id ID, k vec.Vector, s float64) {
	if s > b.bound {
		return
	}
	d := s
	if t.euclid {
		d = math.Sqrt(s)
	}
	if d < b.Dist || d == b.Dist && id < b.ID {
		b.Neighbor = Neighbor{ID: id, Key: k, Dist: d}
		b.bound = d
		if t.euclid {
			b.bound = tieBound(d)
		}
	}
}

// tieBound bounds the squared distances whose square root rounds to d:
// one is at most d²(1+2⁻⁵²) up to rounding, and the 2⁻⁵⁰ margin covers
// the rounding of the product itself.
func tieBound(d float64) float64 { return d * d * (1 + 0x1p-50) }

// score is the distance Nearest scores points by: squared for the
// Euclidean metric, the metric's own otherwise.
func (t *KDTree) score(a, b vec.Vector) float64 {
	if t.euclid {
		return vec.SquaredEuclidean(a, b)
	}
	return t.metric.Distance(a, b)
}

// nearest descends from child reference r, near side first. The far side
// is skipped when the query's gap to the splitting plane, scored like a
// point (squared under the Euclidean metric), is past the bound: every
// point there has at least that gap on the split axis.
func (t *KDTree) nearest(r int32, key vec.Vector, b *nnBest, probes *int) {
	for r >= 0 {
		n := &t.nodes[r]
		*probes++
		gap := key[n.axis] - n.split
		near, far := n.left, n.right
		if gap >= 0 {
			near, far = far, near
		}
		t.nearest(near, key, b, probes)
		if t.euclid {
			gap *= gap
		} else {
			gap = math.Abs(gap)
		}
		if gap > b.bound {
			return
		}
		r = far
	}
	lf := &t.leaves[^r]
	*probes += 1 + len(lf.ids)
	ids, dim := lf.ids, t.dim
	for _, blk := range lf.blocks {
		for off := 0; off < len(blk) && len(ids) > 0; off += dim {
			k := vec.Vector(blk[off : off+dim : off+dim])
			if t.euclid {
				// A sum past the bound loses no matter its exact value,
				// so it may stop early; one within it is exact.
				b.offer(t, ids[0], k, vec.SquaredEuclideanBounded(key, k, b.bound))
			} else {
				b.offer(t, ids[0], k, t.metric.Distance(key, k))
			}
			ids = ids[1:]
		}
	}
}

// KNearest implements Index.
func (t *KDTree) KNearest(key vec.Vector, k int) []Neighbor {
	ns, _ := t.KNearestProbed(key, k)
	return ns
}

// KNearestProbed implements ProbedSearcher.
func (t *KDTree) KNearestProbed(key vec.Vector, k int) ([]Neighbor, int) {
	if k <= 0 || t.Len() == 0 {
		return nil, 0
	}
	s := knnSet{k: k, h: make([]Neighbor, 0, min(k, t.Len()))}
	probes := t.visit(key, func(gap float64) bool {
		return len(s.h) == k && gap > s.h[0].Dist
	}, func(id ID, kv vec.Vector, d float64) { s.offer(Neighbor{ID: id, Key: kv, Dist: d}) })
	t.countQuery(probes)
	sortNeighbors(s.h)
	return s.h, probes
}

// visit offers every point a range or k-nearest search cannot rule out
// to emit, with its distance under the tree's metric, and returns the
// probe count. prune reports whether a subtree whose splitting plane
// lies gap from the query can be skipped; it is consulted after the
// near side has been visited.
func (t *KDTree) visit(key vec.Vector, prune func(gap float64) bool, emit func(ID, vec.Vector, float64)) int {
	probes := 0
	var walk func(r int32)
	walk = func(r int32) {
		for r >= 0 {
			n := &t.nodes[r]
			probes++
			gap := key[n.axis] - n.split
			near, far := n.left, n.right
			if gap >= 0 {
				near, far = far, near
			}
			walk(near)
			if prune(math.Abs(gap)) {
				return
			}
			r = far
		}
		lf := &t.leaves[^r]
		probes += 1 + len(lf.ids)
		for i, id := range lf.ids {
			k := t.key(lf, i)
			emit(id, k, t.metric.Distance(key, k))
		}
	}
	switch {
	case t.live == 0:
	case len(key) != t.dim || !t.prunable:
		for li := range t.leaves {
			walk(^int32(li))
		}
	default:
		walk(t.root)
	}
	for i, k := range t.sideKeys {
		emit(t.sideIDs[i], k, t.metric.Distance(key, k))
	}
	return probes + len(t.sideKeys)
}

// knnSet keeps the k best neighbours seen as a max-heap on (Dist, ID),
// so the root is the candidate to replace.
type knnSet struct {
	k int
	h []Neighbor
}

func (s *knnSet) offer(n Neighbor) {
	h := s.h
	if len(h) < s.k {
		h = append(h, n)
		for i := len(h) - 1; i > 0; {
			p := (i - 1) / 2
			if !less(h[p], h[i]) {
				break
			}
			h[i], h[p] = h[p], h[i]
			i = p
		}
		s.h = h
		return
	}
	if !less(n, h[0]) {
		return
	}
	h[0] = n
	for i := 0; ; {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && less(h[c], h[c+1]) {
			c++
		}
		if !less(h[i], h[c]) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// Len implements Index.
func (t *KDTree) Len() int { return t.live + len(t.sideIDs) }

// Metric implements Index.
func (t *KDTree) Metric() vec.Metric { return t.metric }

// Kind implements Index.
func (t *KDTree) Kind() Kind { return KindKDTree }
