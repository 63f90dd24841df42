package index

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/feature"
	"repro/internal/synth"
	"repro/internal/vec"
)

// kdOracle drives a KDTree and the Linear reference through the same
// operations and fails on any disagreement: equal IDs in the same order
// and bit-identical distances.
type kdOracle struct {
	t   testing.TB
	kd  *KDTree
	lin *Linear
}

func sameNeighbors(got, want []Neighbor) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range want {
		if got[i].ID != want[i].ID || math.Float64bits(got[i].Dist) != math.Float64bits(want[i].Dist) {
			return false
		}
	}
	return true
}

func (o *kdOracle) insert(id ID, key vec.Vector) {
	if err, want := o.kd.Insert(id, key), o.lin.Insert(id, key); err != want {
		o.t.Fatalf("Insert(%d, %v) = %v, linear %v", id, key, err, want)
	}
	o.checkLen()
}

func (o *kdOracle) remove(id ID) {
	o.kd.Remove(id)
	o.lin.Remove(id)
	o.checkLen()
}

func (o *kdOracle) checkLen() {
	if o.kd.Len() != o.lin.Len() {
		o.t.Fatalf("Len = %d, linear holds %d", o.kd.Len(), o.lin.Len())
	}
}

func (o *kdOracle) query(q vec.Vector, k int, r float64) {
	got, gotOK := o.kd.Nearest(q)
	want, wantOK := o.lin.Nearest(q)
	if gotOK != wantOK || gotOK && !sameNeighbors([]Neighbor{got}, []Neighbor{want}) {
		o.t.Fatalf("Nearest(%v) = %+v %v, linear %+v %v", q, got, gotOK, want, wantOK)
	}
	if gotOK && len(got.Key) != len(want.Key) {
		o.t.Fatalf("Nearest(%v) key %v, linear %v", q, got.Key, want.Key)
	}
	if g, w := o.kd.KNearest(q, k), o.lin.KNearest(q, k); !sameNeighbors(g, w) {
		o.t.Fatalf("KNearest(%v, %d) = %v, linear %v", q, k, g, w)
	}
	if g, w := o.kd.Radius(q, r), o.lin.Radius(q, r); !sameNeighbors(g, w) {
		o.t.Fatalf("Radius(%v, %v) = %v, linear %v", q, r, g, w)
	}
}

// FuzzKDTreeOracle checks the KD-tree against the linear scan on
// arbitrary operation sequences: inserts, re-inserts of live IDs,
// removals of live and absent IDs, keys of another dimensionality, and
// Nearest/KNearest/Radius queries under the three prunable metrics. The
// input's header picks the metric, the dimensionality and a per-axis
// scale from 1e-3 to 1e3; coordinates come from single bytes, so
// duplicate keys and ties are common.
func FuzzKDTreeOracle(f *testing.F) {
	f.Add([]byte{0, 3, 0x12, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 6, 1, 2, 3, 4})
	f.Add([]byte{1, 2, 0x40, 0, 9, 9, 0, 9, 9, 5, 9, 9, 2, 0, 1, 1, 3, 0, 6, 9, 9, 9, 9})
	f.Add([]byte{2, 5, 0xe4, 4, 1, 2, 3, 0, 1, 2, 3, 4, 5, 6, 4, 7, 7, 6, 7, 7, 7, 7, 7, 7, 3, 0})
	f.Add([]byte{0, 7, 0x31, 0, 1, 2, 3, 4, 5, 6, 0, 6, 5, 4, 3, 2, 1, 4, 3, 1, 9, 9, 9, 9, 9, 9, 9, 6, 1, 2, 3, 4, 5, 6, 7})
	seq := make([]byte, 0, 600)
	seq = append(seq, 0, 6, 0x9c)
	rng := rand.New(rand.NewSource(1))
	for len(seq) < cap(seq) {
		seq = append(seq, byte(rng.Intn(256)))
	}
	f.Add(seq)
	scales := []float64{1e-3, 1e-1, 1, 10, 1e3}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		metric := []vec.Metric{vec.EuclideanMetric{}, vec.ManhattanMetric{}, vec.ChebyshevMetric{}}[int(data[0])%3]
		// 65-d and 200-d leaves keep their keys in several blocks.
		dim := []int{1, 2, 3, 4, 5, 6, 65, 200}[int(data[1])%8]
		scale := make([]float64, 7)
		for a := range scale {
			scale[a] = scales[(int(data[2])+a*int(data[1]|1))%len(scales)]
		}
		data = data[3:]
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		// A key takes one byte per coordinate up to 7 and repeats them
		// beyond, so long keys stay cheap to encode.
		keyOf := func(d int) vec.Vector {
			k := make(vec.Vector, d)
			for a := range k {
				if a < len(scale) {
					k[a] = float64(int(next()%16)-8) * scale[a]
				} else {
					k[a] = k[a%len(scale)]
				}
			}
			return k
		}
		o := &kdOracle{t: t, kd: NewKDTree(metric), lin: NewLinear(metric)}
		var ids []ID
		nextID := ID(1)
		for len(data) > 0 {
			switch op := next() % 8; op {
			case 0, 1, 2: // insert a new ID
				o.insert(nextID, keyOf(dim))
				ids = append(ids, nextID)
				nextID++
			case 3: // re-insert an ID, live or not
				if len(ids) > 0 {
					o.insert(ids[int(next())%len(ids)], keyOf(dim))
				}
			case 4: // remove an ID, possibly absent
				o.remove(ID(int(next()) % int(nextID+2)))
			case 5: // a key of another dimensionality, or a duplicate
				if b := next(); b%2 == 0 {
					o.insert(nextID, keyOf(dim+1-int(b%4)))
				} else if len(ids) > 0 {
					src := o.lin.keys[ids[int(b)%len(ids)]]
					if src == nil {
						continue
					}
					o.insert(nextID, src)
				}
				ids = append(ids, nextID)
				nextID++
			default: // query
				b := next()
				q := keyOf(dim)
				if b%5 == 0 {
					q = keyOf(dim + 1)
				}
				o.query(q, 1+int(b)%5, float64(next()%32)*scale[0]/2)
			}
		}
		o.query(keyOf(dim), 3, scale[0]*4)
	})
}

// poseKey draws a 6-d pose with the mixed scales of an AR pose: metres
// over 100 × 100 × 3 and radians over 2π × 0.6 × 0.2.
func poseKey(rng *rand.Rand) vec.Vector {
	return vec.Vector{
		rng.Float64() * 100, rng.Float64() * 100, rng.Float64() * 3,
		(rng.Float64()*2 - 1) * math.Pi, (rng.Float64()*2 - 1) * 0.3, (rng.Float64()*2 - 1) * 0.1,
	}
}

// TestKDTreeChurnStaysBounded runs 10^6 random inserts and removals
// (evict-one, insert-one, as a cache at capacity does, with phases that
// grow and drain the tree) and checks after every operation batch that
// the node and leaf counts stay O(live), that no leaf keeps an empty key
// block, and that every point stays findable.
func TestKDTreeChurnStaysBounded(t *testing.T) {
	const ops = 1_000_000
	rng := rand.New(rand.NewSource(41))
	kd := NewKDTree(vec.EuclideanMetric{})
	var live []ID
	nextID := ID(1)
	target := 4096
	for i := 0; i < ops; i++ {
		switch i % 250_000 {
		case 100_000:
			target = 64 // drain
		case 150_000:
			target = 16_384 // grow
		case 200_000:
			target = 4096
		}
		if len(live) > 0 && (len(live) >= target || rng.Intn(3) == 0) {
			j := rng.Intn(len(live))
			id := live[j]
			kd.Remove(id)
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
		} else {
			if err := kd.Insert(nextID, poseKey(rng)); err != nil {
				t.Fatal(err)
			}
			live = append(live, nextID)
			nextID++
		}
		if i%1000 != 0 {
			continue
		}
		n := kd.Len()
		if n != len(live) {
			t.Fatalf("op %d: Len = %d, want %d", i, n, len(live))
		}
		if len(kd.leaves) > n/2+2 || n > 0 && len(kd.nodes) != len(kd.leaves)-1 {
			t.Fatalf("op %d: %d live points in %d leaves under %d nodes", i, n, len(kd.leaves), len(kd.nodes))
		}
		for li := range kd.leaves {
			lf := &kd.leaves[li]
			if want := (len(lf.ids) + 1<<kd.shift - 1) >> kd.shift; len(lf.blocks) != want {
				t.Fatalf("op %d: leaf %d holds %d points in %d key blocks, want %d", i, li, len(lf.ids), len(lf.blocks), want)
			}
		}
		if len(kd.spare) > leafMax {
			t.Fatalf("op %d: %d spare key blocks", i, len(kd.spare))
		}
	}
	for _, id := range live {
		loc, ok := kd.where[id]
		if !ok {
			t.Fatalf("live id %d not located", id)
		}
		li, slot := unpackLoc(loc)
		if kd.leaves[li].ids[slot] != id {
			t.Fatalf("id %d located at leaf %d slot %d, which holds %d", id, li, slot, kd.leaves[li].ids[slot])
		}
	}
}

// TestKDTreeMixedDimensions: keys of several dimensionalities coexist,
// queries of each get the linear scan's answer, and once one
// dimensionality dominates a rebuild moves it into the tree.
func TestKDTreeMixedDimensions(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	o := &kdOracle{t: t, kd: NewKDTree(vec.EuclideanMetric{}), lin: NewLinear(vec.EuclideanMetric{})}
	for i := 0; i < 40; i++ {
		o.insert(ID(i), randomVec(rng, 3))
	}
	for i := 40; i < 400; i++ {
		o.insert(ID(i), randomVec(rng, 5))
	}
	if o.kd.dim != 5 || len(o.kd.sideIDs) != 40 {
		t.Fatalf("tree dim %d with %d side keys, want dim 5 with the 40 3-d keys aside", o.kd.dim, len(o.kd.sideIDs))
	}
	for _, d := range []int{3, 4, 5} {
		for q := 0; q < 10; q++ {
			o.query(randomVec(rng, d), 4, 15)
		}
	}
	for i := 40; i < 400; i++ {
		o.remove(ID(i))
	}
	if o.kd.dim != 3 || len(o.kd.sideIDs) != 0 {
		t.Fatalf("after removing the 5-d keys: tree dim %d with %d side keys, want dim 3 and none aside", o.kd.dim, len(o.kd.sideIDs))
	}
	o.query(randomVec(rng, 3), 2, 10)
}

// TestKDTreeNearestAllocatesNothing pins the per-search allocation
// budget at zero: Nearest runs on every lookup and every put.
func TestKDTreeNearestAllocatesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	kd := NewKDTree(vec.EuclideanMetric{})
	for i := 0; i < 2048; i++ {
		kd.Insert(ID(i), poseKey(rng))
	}
	q := poseKey(rng)
	if a := testing.AllocsPerRun(100, func() { kd.Nearest(q) }); a != 0 {
		t.Fatalf("Nearest allocates %.1f times per call", a)
	}
}

func downsampleKeys(n int) []vec.Vector {
	feed := synth.NewVideo(synth.VideoConfig{W: 64, H: 48, Seed: 1, CutEvery: 256})
	ext := feature.Downsample{}
	keys := make([]vec.Vector, n)
	for i := range keys {
		keys[i] = ext.Extract(feed.Frame(i)).Key
	}
	return keys
}

var nearestSink Neighbor

// BenchmarkKDTreeNearest measures one nearest-neighbour search in a tree
// of fixed size that has been churned (as many evict-and-insert pairs as
// it holds points) before the timer starts. Queries are fresh keys from
// the same distribution, as a cache's miss probes are. pose6 keys mix
// metres and radians like an AR pose; uniform6 keys fill the unit cube;
// downsample768 keys are 768-d Downsample features of a synthetic video.
func BenchmarkKDTreeNearest(b *testing.B) {
	cases := []struct {
		name string
		n    int
		gen  func(rng *rand.Rand, n int) []vec.Vector
	}{
		{"pose6", 4096, poseKeys},
		{"pose6", 65536, poseKeys},
		{"uniform6", 4096, uniformKeys},
		{"downsample768", 1024, func(_ *rand.Rand, n int) []vec.Vector { return downsampleKeys(n) }},
	}
	for _, c := range cases {
		b.Run(fmt.Sprintf("%s-%d", c.name, c.n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(5))
			keys := c.gen(rng, 3*c.n)
			kd := NewKDTree(vec.EuclideanMetric{})
			for i := 0; i < c.n; i++ {
				kd.Insert(ID(i), keys[i])
			}
			for i := c.n; i < 2*c.n; i++ {
				kd.Remove(ID(rng.Intn(i)))
				kd.Insert(ID(i), keys[i])
			}
			queries := keys[2*c.n:]
			if a := testing.AllocsPerRun(10, func() { kd.Nearest(queries[0]) }); a != 0 {
				b.Fatalf("Nearest allocates %.1f times per call", a)
			}
			before := kd.ProbeStats()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				nearestSink, _ = kd.Nearest(queries[i%len(queries)])
			}
			b.StopTimer()
			after := kd.ProbeStats()
			b.ReportMetric(float64(after.Probes-before.Probes)/float64(after.Queries-before.Queries), "probes/op")
		})
	}
}

func poseKeys(rng *rand.Rand, n int) []vec.Vector {
	keys := make([]vec.Vector, n)
	for i := range keys {
		keys[i] = poseKey(rng)
	}
	return keys
}

func uniformKeys(rng *rand.Rand, n int) []vec.Vector {
	keys := make([]vec.Vector, n)
	for i := range keys {
		keys[i] = make(vec.Vector, 6)
		for a := range keys[i] {
			keys[i][a] = rng.Float64()
		}
	}
	return keys
}
