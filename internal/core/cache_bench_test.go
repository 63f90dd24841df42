package core

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/vec"
)

func benchCache(b *testing.B, entries, dim int) (*Cache, []vec.Vector) {
	b.Helper()
	cache := New(Config{
		Clock:          clock.NewVirtual(time.Unix(0, 0)),
		DisableDropout: true,
		Tuner:          TunerConfig{WarmupZ: 1},
	})
	if err := cache.RegisterFunction("f", KeyTypeSpec{Name: "k", Dim: dim}); err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	keys := make([]vec.Vector, entries)
	for i := range keys {
		v := make(vec.Vector, dim)
		for j := range v {
			v[j] = rng.NormFloat64()
		}
		keys[i] = v
		if _, err := cache.Put("f", PutRequest{
			Keys: map[string]vec.Vector{"k": v}, Value: i, Cost: time.Millisecond,
		}); err != nil {
			b.Fatal(err)
		}
	}
	if err := cache.ForceThreshold("f", "k", 1e9); err != nil {
		b.Fatal(err)
	}
	return cache, keys
}

// BenchmarkLookupHit measures the full lookup path (lock, purge, kNN,
// importance update) at several cache sizes.
func BenchmarkLookupHit(b *testing.B) {
	for _, n := range []int{100, 10_000} {
		b.Run(fmt.Sprintf("entries-%d", n), func(b *testing.B) {
			cache, keys := benchCache(b, n, 16)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := cache.Lookup("f", "k", keys[i%len(keys)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkLookupMiss measures the miss path (no entry within threshold).
func BenchmarkLookupMiss(b *testing.B) {
	cache, _ := benchCache(b, 1000, 16)
	if err := cache.ForceThreshold("f", "k", 1e-12); err != nil {
		b.Fatal(err)
	}
	far := make(vec.Vector, 16)
	far[0] = 1e6
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cache.Lookup("f", "k", far); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPutWithEviction measures puts against a full cache, where
// every insertion selects and evicts a victim. Each size is filled to
// capacity before the timer starts, so every timed put evicts exactly
// one entry and ns/op depends on the size in the name, not on b.N.
func BenchmarkPutWithEviction(b *testing.B) {
	for _, n := range []int{256, 4096, 65536} {
		b.Run(fmt.Sprintf("entries-%d", n), func(b *testing.B) {
			cache := New(Config{
				Clock:          clock.NewVirtual(time.Unix(0, 0)),
				DisableDropout: true,
				Tuner:          TunerConfig{WarmupZ: 1},
				MaxEntries:     n,
			})
			if err := cache.RegisterFunction("f", KeyTypeSpec{Name: "k", Dim: 4}); err != nil {
				b.Fatal(err)
			}
			rng := rand.New(rand.NewSource(2))
			put := func(i int) {
				key := vec.Vector{rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64()}
				if _, err := cache.Put("f", PutRequest{
					Keys: map[string]vec.Vector{"k": key}, Value: i, Cost: time.Millisecond,
				}); err != nil {
					b.Fatal(err)
				}
			}
			for i := 0; i < n; i++ {
				put(i)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				put(n + i)
			}
		})
	}
}

// BenchmarkVictimSet times the eviction choice alone at each size:
// one hit on a random resident (so importance keys go stale and the
// heap has to re-key them), then pick the victim, remove it and admit
// its replacement.
func BenchmarkVictimSet(b *testing.B) {
	for _, n := range []int{256, 4096, 65536} {
		b.Run(fmt.Sprintf("entries-%d", n), func(b *testing.B) {
			s := importancePolicy{}.newSet(nil)
			rng := rand.New(rand.NewSource(3))
			resident := make([]*entry, n)
			admit := func(slot, id int) {
				e := mkEntry(ID(id), time.Duration(1+rng.Intn(1000))*time.Microsecond, 1,
					1+rng.Intn(4096), time.Time{}, time.Time{})
				e.value = slot
				resident[slot] = e
				s.Admit(e)
			}
			for i := range resident {
				admit(i, i+1)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				resident[rng.Intn(n)].touch(int64(i))
				v, _ := s.Victim()
				s.Remove(v)
				admit(v.value.(int), n+i+1)
			}
		})
	}
}
