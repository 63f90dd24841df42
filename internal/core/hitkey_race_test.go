package core

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/vec"
)

// TestRefineKeySurvivesEviction: a refiner reads the hit's key with no
// lock held while puts at capacity evict and insert on the same key
// type, so the index moves and rewrites keys under it. The key the
// refiner sees must be the hit entry's own and must not change under
// it; under -race, an index key handed out past the read lock is a
// reported race.
func TestRefineKeySurvivesEviction(t *testing.T) {
	const (
		poolSize = 512
		readers  = 4
		rounds   = 300
	)
	c, _ := newTestCache(t, func(cfg *Config) { cfg.MaxEntries = 64 })
	if err := c.RegisterFunction("f", KeyTypeSpec{Name: "pose"}); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	pool := make([]vec.Vector, poolSize)
	for i := range pool {
		pool[i] = vec.Vector{rng.Float64() * 100, rng.Float64() * 100, rng.Float64() * 3, rng.Float64(), rng.Float64(), rng.Float64()}
	}
	put := func(rng *rand.Rand) {
		reqs := make([]BatchPut, 8)
		for i := range reqs {
			p := rng.Intn(poolSize)
			reqs[i] = BatchPut{Function: "f", Req: PutRequest{Keys: map[string]vec.Vector{"pose": pool[p]}, Value: p}}
		}
		for _, r := range c.MultiPut(reqs) {
			if r.Err != nil {
				t.Error(r.Err)
			}
		}
	}
	for i := 0; i < 16; i++ {
		put(rng)
	}

	var refined, bad atomic.Int64
	refine := func(v any, cachedKey, _ vec.Vector) any {
		want := pool[v.(int)]
		for pass := 0; pass < 2; pass++ {
			for i := range want {
				if cachedKey[i] != want[i] {
					bad.Add(1)
					return v
				}
			}
		}
		refined.Add(1)
		return v
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := c.LookupOpts("f", "pose", pool[rng.Intn(poolSize)], LookupOptions{Refine: refine}); err != nil {
					t.Error(err)
					return
				}
			}
		}(int64(r))
	}
	for i := 0; i < rounds; i++ {
		put(rng)
	}
	close(stop)
	wg.Wait()
	if n := bad.Load(); n > 0 {
		t.Fatalf("%d refinements saw a key other than their entry's", n)
	}
	if refined.Load() == 0 {
		t.Fatal("no lookup hit, so no refiner ran")
	}
	if s := c.Stats(); s.Evictions == 0 {
		t.Fatalf("no evictions: %+v", s)
	}
}
