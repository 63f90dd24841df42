package core

import (
	"math/rand"
	"sort"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/clock"
	"repro/internal/vec"
)

func mkEntry(id ID, cost time.Duration, accesses int64, size int, last, inserted time.Time) *entry {
	e := &entry{id: id, cost: cost, size: size, insertedAt: inserted}
	e.accessCount.Store(accesses)
	e.lastAccess.Store(last.UnixNano())
	return e
}

// The scan oracles below are the full-cache victim scans the cache ran
// before it kept an incremental victim set. They survive only here, as
// the reference the victim sets must agree with exactly. (Random
// discard has no exact oracle; its tests check membership and seeded
// reproducibility instead.)

func scanImportance(entries []*entry) ID {
	best := entries[0]
	bestImp := best.importance()
	for _, e := range entries[1:] {
		if imp := e.importance(); imp < bestImp || (imp == bestImp && e.id < best.id) {
			best, bestImp = e, imp
		}
	}
	return best.id
}

func scanLRU(entries []*entry) ID {
	best := entries[0]
	bestLast := best.lastAccess.Load()
	for _, e := range entries[1:] {
		if last := e.lastAccess.Load(); last < bestLast ||
			(last == bestLast && e.id < best.id) {
			best, bestLast = e, last
		}
	}
	return best.id
}

func scanFIFO(entries []*entry) ID {
	best := entries[0]
	for _, e := range entries[1:] {
		if e.insertedAt.Before(best.insertedAt) ||
			(e.insertedAt.Equal(best.insertedAt) && e.id < best.id) {
			best = e
		}
	}
	return best.id
}

var scanOracles = map[PolicyKind]func([]*entry) ID{
	PolicyImportance: scanImportance,
	PolicyLRU:        scanLRU,
	PolicyFIFO:       scanFIFO,
}

// newVictimSet builds kind's victim set holding entries. Random draws
// come from a rand.Rand seeded with seed.
func newVictimSet(t testing.TB, kind PolicyKind, seed int64, entries ...*entry) victimSet {
	t.Helper()
	p, err := NewPolicy(kind)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	s := p.newSet(rng.Intn)
	for _, e := range entries {
		s.Admit(e)
	}
	return s
}

func victimID(s victimSet) ID {
	e, _ := s.Victim()
	if e == nil {
		return 0
	}
	return e.id
}

func TestNewPolicy(t *testing.T) {
	for _, k := range []PolicyKind{PolicyImportance, PolicyLRU, PolicyRandom, PolicyFIFO} {
		p, err := NewPolicy(k)
		if err != nil {
			t.Fatalf("NewPolicy(%s): %v", k, err)
		}
		if p.Name() != k {
			t.Errorf("Name = %s, want %s", p.Name(), k)
		}
	}
	if p, err := NewPolicy(""); err != nil || p.Name() != PolicyImportance {
		t.Errorf("default policy: %v, %v", p, err)
	}
	if _, err := NewPolicy("bogus"); err == nil {
		t.Error("bogus policy accepted")
	}
}

func TestImportanceVictim(t *testing.T) {
	now := time.Unix(100, 0)
	s := newVictimSet(t, PolicyImportance, 0,
		mkEntry(1, time.Second, 10, 10, now, now),      // imp = 1.0
		mkEntry(2, time.Second, 1, 100, now, now),      // imp = 0.01
		mkEntry(3, 10*time.Second, 100, 10, now, now),  // imp = 100
		mkEntry(4, time.Millisecond, 50, 10, now, now), // imp = 0.005 ← victim
	)
	if got := victimID(s); got != 4 {
		t.Errorf("victim = %d, want 4", got)
	}
}

func TestImportanceTieBreaksByID(t *testing.T) {
	now := time.Unix(0, 0)
	s := newVictimSet(t, PolicyImportance, 0,
		mkEntry(7, time.Second, 1, 10, now, now),
		mkEntry(3, time.Second, 1, 10, now, now),
	)
	if got := victimID(s); got != 3 {
		t.Errorf("tie break: victim = %d, want 3", got)
	}
}

// TestImportanceVictimRekeysLazily: a hit raises the head's importance
// after admission; the heap must notice at victim time, not serve the
// stale key.
func TestImportanceVictimRekeysLazily(t *testing.T) {
	now := time.Unix(0, 0)
	cold := mkEntry(1, time.Second, 1, 10, now, now) // imp = 0.1
	warm := mkEntry(2, time.Second, 2, 10, now, now) // imp = 0.2
	s := newVictimSet(t, PolicyImportance, 0, cold, warm)
	for i := 0; i < 4; i++ {
		cold.touch(now.UnixNano()) // imp = 0.5
	}
	v, rekeys := s.Victim()
	if v != warm || rekeys != 1 {
		t.Errorf("victim = %d after %d re-keys, want 2 after 1", v.id, rekeys)
	}
}

func TestLRUVictim(t *testing.T) {
	base := time.Unix(100, 0)
	s := newVictimSet(t, PolicyLRU, 0,
		mkEntry(1, time.Second, 1, 1, base.Add(3*time.Second), base),
		mkEntry(2, time.Second, 1, 1, base.Add(1*time.Second), base), // ← victim
		mkEntry(3, time.Second, 1, 1, base.Add(2*time.Second), base),
	)
	if got := victimID(s); got != 2 {
		t.Errorf("LRU victim = %d, want 2", got)
	}
}

func TestFIFOVictim(t *testing.T) {
	base := time.Unix(100, 0)
	s := newVictimSet(t, PolicyFIFO, 0,
		mkEntry(1, time.Second, 1, 1, base, base.Add(2*time.Second)),
		mkEntry(2, time.Second, 1, 1, base, base.Add(1*time.Second)), // ← victim
	)
	if got := victimID(s); got != 2 {
		t.Errorf("FIFO victim = %d, want 2", got)
	}
}

func TestRandomVictimIsMember(t *testing.T) {
	now := time.Unix(0, 0)
	s := newVictimSet(t, PolicyRandom, 1,
		mkEntry(10, time.Second, 1, 1, now, now),
		mkEntry(20, time.Second, 1, 1, now, now),
		mkEntry(30, time.Second, 1, 1, now, now),
	)
	seen := make(map[ID]bool)
	for i := 0; i < 100; i++ {
		v := victimID(s)
		if v != 10 && v != 20 && v != 30 {
			t.Fatalf("victim %d not a member", v)
		}
		seen[v] = true
	}
	if len(seen) < 2 {
		t.Error("random policy never varied its choice")
	}
}

// Property: the importance victim always has globally minimal importance.
func TestImportanceVictimMinimalProperty(t *testing.T) {
	now := time.Unix(0, 0)
	f := func(costs []uint16, accesses []uint8) bool {
		if len(costs) == 0 {
			return true
		}
		entries := make([]*entry, len(costs))
		for i := range costs {
			acc := int64(1)
			if i < len(accesses) {
				acc = int64(accesses[i]) + 1
			}
			entries[i] = mkEntry(ID(i+1), time.Duration(costs[i])*time.Millisecond, acc, 10, now, now)
		}
		v, _ := newVictimSet(t, PolicyImportance, 0, entries...).Victim()
		for _, e := range entries {
			if e.importance() < v.importance() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestEntryImportanceZeroSize(t *testing.T) {
	e := mkEntry(1, time.Second, 2, 0, time.Time{}, time.Time{})
	if got := e.snapshot().Importance(); got != 2 {
		t.Errorf("Importance with size 0 = %v, want cost*freq/1 = 2", got)
	}
}

// TestEntryTouchNeverMovesBack: a hit stamped earlier than the last one
// (a racing lookup that read the clock first) still counts, but leaves
// lastAccess where it was.
func TestEntryTouchNeverMovesBack(t *testing.T) {
	e := mkEntry(1, time.Second, 1, 1, time.Unix(0, 50), time.Unix(0, 0))
	e.touch(40)
	if e.lastAccess.Load() != 50 || e.accessCount.Load() != 2 {
		t.Errorf("after stale touch: lastAccess %d, count %d; want 50, 2", e.lastAccess.Load(), e.accessCount.Load())
	}
	e.touch(60)
	if e.lastAccess.Load() != 60 {
		t.Errorf("lastAccess = %d, want 60", e.lastAccess.Load())
	}
}

// refRun is a reference-model run against a real cache.
type refRun struct {
	t     *testing.T
	clk   *clock.Virtual
	c     *Cache
	keys  []vec.Vector // every key ever put, by put order
	evict []ID         // evicted ids, in eviction order
}

const refCapacity = 24

// newRefRun builds a small bounded cache over an exact-match hash index,
// so a lookup of a resident key always hits and is the only entry it
// touches.
func newRefRun(t *testing.T, kind PolicyKind, seed int64) *refRun {
	t.Helper()
	clk := clock.NewVirtual(time.Unix(1000, 0))
	c := New(Config{
		Clock:          clk,
		MaxEntries:     refCapacity,
		DisableDropout: true,
		Policy:         kind,
		Seed:           seed,
		Tuner:          TunerConfig{WarmupZ: 1},
	})
	if err := c.RegisterFunction("f", KeyTypeSpec{Name: "k", Index: "hash"}); err != nil {
		t.Fatal(err)
	}
	if err := c.ForceThreshold("f", "k", 0); err != nil {
		t.Fatal(err)
	}
	return &refRun{t: t, clk: clk, c: c}
}

func (r *refRun) live() []*entry {
	var out []*entry
	r.c.entries.forEach(func(e *entry) bool {
		out = append(out, e)
		return true
	})
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// step applies one seeded random operation: a put (with its eviction
// checked against oracle when the cache is full), a lookup hit, an
// invalidation, or a clock advance that expires short-TTL entries.
func (r *refRun) step(rng *rand.Rand, oracle func([]*entry) ID) {
	t := r.t
	switch op := rng.Intn(10); {
	case op < 4:
		// Purge first so the oracle sees exactly the entries Put's
		// eviction will choose among.
		r.c.PurgeExpired()
		before := r.live()
		key := vec.Vector{float64(len(r.keys))}
		r.keys = append(r.keys, key)
		ttl := time.Hour
		if rng.Intn(4) == 0 {
			ttl = time.Duration(1+rng.Intn(20)) * time.Millisecond
		}
		if _, err := r.c.Put("f", PutRequest{
			Keys:  map[string]vec.Vector{"k": key},
			Value: len(r.keys),
			Cost:  time.Duration(1+rng.Intn(4)) * time.Millisecond,
			Size:  1 + rng.Intn(3),
			TTL:   ttl,
		}); err != nil {
			t.Fatal(err)
		}
		if len(before) < refCapacity {
			return
		}
		after := make(map[ID]bool)
		for _, e := range r.live() {
			after[e.id] = true
		}
		var gone []ID
		for _, e := range before {
			if !after[e.id] {
				gone = append(gone, e.id)
			}
		}
		if len(gone) != 1 {
			t.Fatalf("put at capacity evicted %v, want exactly one entry", gone)
		}
		if oracle != nil {
			if want := oracle(before); gone[0] != want {
				t.Fatalf("evicted %d, scan oracle evicts %d", gone[0], want)
			}
		}
		r.evict = append(r.evict, gone[0])
	case op < 7:
		if len(r.keys) == 0 {
			return
		}
		if _, err := r.c.Lookup("f", "k", r.keys[rng.Intn(len(r.keys))]); err != nil {
			t.Fatal(err)
		}
	case op < 8:
		if len(r.keys) == 0 {
			return
		}
		if _, err := r.c.InvalidateRadius("f", "k", r.keys[rng.Intn(len(r.keys))], 0); err != nil {
			t.Fatal(err)
		}
	default:
		r.clk.Advance(time.Duration(rng.Intn(3)) * time.Millisecond)
	}
	if got, want := r.c.victims.Len(), r.c.Len(); got != want {
		t.Fatalf("victim set holds %d entries, cache %d", got, want)
	}
}

// TestCacheEvictionMatchesScanOracle drives seeded random sequences of
// puts, hits, invalidations and expiries through a real cache and
// checks every eviction against the full-scan oracle: the incremental
// victim sets must pick exactly the same entry, tie-breaks included.
func TestCacheEvictionMatchesScanOracle(t *testing.T) {
	for _, kind := range []PolicyKind{PolicyImportance, PolicyLRU, PolicyFIFO} {
		t.Run(string(kind), func(t *testing.T) {
			evictions := 0
			for seed := int64(1); seed <= 8; seed++ {
				r := newRefRun(t, kind, seed)
				rng := rand.New(rand.NewSource(seed))
				for i := 0; i < 1500; i++ {
					r.step(rng, scanOracles[kind])
				}
				evictions += len(r.evict)
			}
			if evictions < 100 {
				t.Fatalf("only %d checked evictions: the run compares too little", evictions)
			}
		})
	}
}

// TestRandomEvictionReproducible: random eviction always picks a
// resident entry, and the same seed replays the same victims.
func TestRandomEvictionReproducible(t *testing.T) {
	run := func(seed int64) []ID {
		r := newRefRun(t, PolicyRandom, seed)
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 1500; i++ {
			r.step(rng, nil) // step checks the victim was resident
		}
		return r.evict
	}
	a, b := run(3), run(3)
	if len(a) < 100 {
		t.Fatalf("only %d evictions", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("eviction %d: %d vs %d on the same seed", i, a[i], b[i])
		}
	}
}

// TestVictimSetMatchesScanOracleUnderRekeys exercises the sets directly
// with far more hits per eviction than a cache run, so most victim
// calls walk through stale keys.
func TestVictimSetMatchesScanOracleUnderRekeys(t *testing.T) {
	for kind, oracle := range scanOracles {
		rekeys := 0
		for seed := int64(1); seed <= 10; seed++ {
			rng := rand.New(rand.NewSource(seed))
			s := newVictimSet(t, kind, seed)
			var live []*entry
			now := int64(1_000)
			for i := 0; i < 3000; i++ {
				now += rng.Int63n(3)
				switch op := rng.Intn(10); {
				case op < 3 || len(live) == 0:
					e := mkEntry(ID(i+1), time.Duration(rng.Intn(4))*time.Millisecond, 1, 1+rng.Intn(3),
						time.Unix(0, now), time.Unix(0, now-rng.Int63n(5)))
					s.Admit(e)
					live = append(live, e)
				case op < 8:
					live[rng.Intn(len(live))].touch(now)
				case op < 9:
					j := rng.Intn(len(live))
					s.Remove(live[j])
					live[j] = live[len(live)-1]
					live = live[:len(live)-1]
				default:
					v, n := s.Victim()
					rekeys += n
					if want := oracle(live); v.id != want {
						t.Fatalf("%s seed %d: victim %d, oracle %d", kind, seed, v.id, want)
					}
				}
				if s.Len() != len(live) {
					t.Fatalf("%s: set holds %d, model %d", kind, s.Len(), len(live))
				}
			}
		}
		if kind == PolicyFIFO && rekeys != 0 {
			t.Errorf("fifo re-keyed %d times; its keys never change", rekeys)
		}
		if kind != PolicyFIFO && rekeys == 0 {
			t.Errorf("%s never re-keyed: the run does not exercise lazy re-keying", kind)
		}
	}
}

// TestEvictionConcurrentInvariants runs lookups that hit resident
// entries while puts evict and InvalidateRadius removes, then checks,
// once quiet, that the victim set and the entry table agree, capacity
// holds, and every lookup was counted exactly once. Run under -race.
func TestEvictionConcurrentInvariants(t *testing.T) {
	for _, kind := range []PolicyKind{PolicyImportance, PolicyLRU, PolicyRandom} {
		t.Run(string(kind), func(t *testing.T) {
			const capacity = 64
			c := New(Config{
				MaxEntries:  capacity,
				DropoutRate: 0.1,
				Policy:      kind,
				Seed:        5,
				Tuner:       TunerConfig{WarmupZ: 1},
			})
			if err := c.RegisterFunction("f", KeyTypeSpec{Name: "k", Dim: 2}); err != nil {
				t.Fatal(err)
			}
			key := func(rng *rand.Rand) vec.Vector {
				return vec.Vector{float64(rng.Intn(200)), float64(rng.Intn(4))}
			}
			var wg sync.WaitGroup
			var mu sync.Mutex
			lookups := 0
			for g := 0; g < 6; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(g)))
					n := 0
					for i := 0; i < 600; i++ {
						switch op := rng.Intn(10); {
						case op < 6:
							if _, err := c.Lookup("f", "k", key(rng)); err != nil {
								t.Error(err)
								return
							}
							n++
						case op < 9:
							if _, err := c.Put("f", PutRequest{
								Keys: map[string]vec.Vector{"k": key(rng)}, Value: i,
								Cost: time.Duration(1+rng.Intn(5)) * time.Millisecond,
							}); err != nil {
								t.Error(err)
								return
							}
						default:
							if _, err := c.InvalidateRadius("f", "k", key(rng), 1); err != nil {
								t.Error(err)
								return
							}
						}
					}
					mu.Lock()
					lookups += n
					mu.Unlock()
				}(g)
			}
			wg.Wait()

			c.admitMu.Lock()
			held := c.victims.Len()
			c.admitMu.Unlock()
			if held != c.Len() || c.Len() > capacity {
				t.Errorf("victim set %d, Len %d, capacity %d", held, c.Len(), capacity)
			}
			var counted int64
			for _, fs := range c.FunctionStats() {
				for _, ks := range fs.KeyTypes {
					counted += ks.Hits + ks.Misses + ks.Dropouts
				}
			}
			if counted != int64(lookups) {
				t.Errorf("hits+misses+dropouts = %d, lookups = %d", counted, lookups)
			}
			if c.Stats().Evictions == 0 || c.Stats().Hits == 0 {
				t.Errorf("run too tame: %+v", c.Stats())
			}
		})
	}
}
