package core

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/clock"
	"repro/internal/vec"
)

// These tests drive a full snapshot cycle: CaptureState on one cache,
// Restore into a fresh one, then compare what the two serve.

func TestSnapshotRoundTrip(t *testing.T) {
	src, clk := newTestCache(t)
	registerScalar(t, src, "f")
	src.Put("f", PutRequest{
		Keys: map[string]vec.Vector{"scalar": {1}}, Value: "alpha",
		Cost: 2 * time.Second, App: "app-a", TTL: time.Hour,
	})
	src.Put("f", PutRequest{
		Keys: map[string]vec.Vector{"scalar": {2}}, Value: int64(42),
		Cost: time.Second, TTL: time.Hour,
	})
	// Accumulate accesses so importance state is non-trivial.
	src.Lookup("f", "scalar", vec.Vector{1})
	src.Lookup("f", "scalar", vec.Vector{1})
	src.ForceThreshold("f", "scalar", 0.5)

	state := src.CaptureState()
	if len(state.Entries) != 2 || len(state.Functions) != 1 || state.Skipped != 0 {
		t.Fatalf("captured %d entries, %d functions, %d skipped", len(state.Entries), len(state.Functions), state.Skipped)
	}

	dst := New(Config{Clock: clk, DisableDropout: true, Tuner: TunerConfig{WarmupZ: 1}})
	rs, err := dst.Restore(state)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Entries != 2 || rs.Functions != 1 {
		t.Fatalf("restore stats = %+v", rs)
	}
	// Entries restored with values, costs, apps and access counts.
	res, err := dst.Lookup("f", "scalar", vec.Vector{1})
	if err != nil || !res.Hit || res.Value != "alpha" {
		t.Fatalf("restored lookup: %+v, %v", res, err)
	}
	if res.Entry.Cost() != 2*time.Second {
		t.Errorf("restored cost = %v", res.Entry.Cost())
	}
	if res.Entry.AccessCount() != 4 { // 1 put + 2 hits + this hit
		t.Errorf("restored access count = %d, want 4", res.Entry.AccessCount())
	}
	if res.Entry.App() != "app-a" {
		t.Errorf("restored app = %q", res.Entry.App())
	}
	// Threshold restored.
	st, _ := dst.TunerStats("f", "scalar")
	if !st.Active || st.Threshold != 0.5 {
		t.Errorf("restored tuner = %+v", st)
	}
	// Approximate hits work against restored indices.
	res, _ = dst.Lookup("f", "scalar", vec.Vector{2.2})
	if !res.Hit || res.Value != int64(42) {
		t.Errorf("approximate restored lookup = %+v", res)
	}
}

// Property: for any random population and threshold, a snapshot round
// trip preserves every lookup outcome (same hits, same values).
func TestSnapshotRoundTripProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8, thRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw%40) + 1
		threshold := float64(thRaw%20) / 4
		clk := clock.NewVirtual(time.Unix(0, 0))
		src := New(Config{Clock: clk, DisableDropout: true, Tuner: TunerConfig{WarmupZ: 1}})
		if err := src.RegisterFunction("f", KeyTypeSpec{Name: "k", Dim: 2}); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			_, err := src.Put("f", PutRequest{
				Keys:  map[string]vec.Vector{"k": {rng.Float64() * 10, rng.Float64() * 10}},
				Value: int64(i),
				Cost:  time.Duration(rng.Intn(1000)) * time.Millisecond,
				TTL:   time.Hour,
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		if err := src.ForceThreshold("f", "k", threshold); err != nil {
			t.Fatal(err)
		}
		dst := New(Config{Clock: clk, DisableDropout: true, Tuner: TunerConfig{WarmupZ: 1}})
		if _, err := dst.Restore(src.CaptureState()); err != nil {
			t.Fatal(err)
		}
		if dst.Len() != src.Len() {
			return false
		}
		for q := 0; q < 20; q++ {
			query := vec.Vector{rng.Float64() * 10, rng.Float64() * 10}
			a, err := src.Lookup("f", "k", query)
			if err != nil {
				t.Fatal(err)
			}
			b, err := dst.Lookup("f", "k", query)
			if err != nil {
				t.Fatal(err)
			}
			if a.Hit != b.Hit || (a.Hit && a.Value != b.Value) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestSnapshotSkipsNonSerializableValues(t *testing.T) {
	src, _ := newTestCache(t)
	registerScalar(t, src, "f")
	type opaque struct{ ch chan int }
	src.Put("f", PutRequest{Keys: map[string]vec.Vector{"scalar": {1}}, Value: opaque{}})
	src.Put("f", PutRequest{Keys: map[string]vec.Vector{"scalar": {2}}, Value: "ok"})
	state := src.CaptureState()
	if len(state.Entries) != 1 || state.Skipped != 1 {
		t.Fatalf("entries=%d skipped=%d, want 1/1", len(state.Entries), state.Skipped)
	}
	dst, _ := newTestCache(t)
	if _, err := dst.Restore(state); err != nil {
		t.Fatal(err)
	}
	if res, _ := dst.Lookup("f", "scalar", vec.Vector{2}); !res.Hit || res.Value != "ok" {
		t.Errorf("serializable neighbour lost: %+v", res)
	}
}

func TestSnapshotTTLRebased(t *testing.T) {
	src, clk := newTestCache(t)
	registerScalar(t, src, "f")
	src.Put("f", PutRequest{Keys: map[string]vec.Vector{"scalar": {1}}, Value: 1, TTL: 10 * time.Minute})
	clk.Advance(6 * time.Minute)
	state := src.CaptureState()
	dst := New(Config{Clock: clk, DisableDropout: true, Tuner: TunerConfig{WarmupZ: 1}})
	if _, err := dst.Restore(state); err != nil {
		t.Fatal(err)
	}
	// 4 minutes remained at capture; the restored entry must expire
	// then, not a full TTL later.
	clk.Advance(3 * time.Minute)
	if res, _ := dst.Lookup("f", "scalar", vec.Vector{1}); !res.Hit {
		t.Error("entry expired early after restore")
	}
	clk.Advance(2 * time.Minute)
	if res, _ := dst.Lookup("f", "scalar", vec.Vector{1}); res.Hit {
		t.Error("entry outlived its rebased TTL")
	}
}

func TestSnapshotExpiredEntriesDropped(t *testing.T) {
	src, clk := newTestCache(t)
	registerScalar(t, src, "f")
	src.Put("f", PutRequest{Keys: map[string]vec.Vector{"scalar": {1}}, Value: 1, TTL: time.Minute})
	if state := src.CaptureState(); len(state.Entries) != 1 {
		t.Fatalf("live entry not captured: %d entries", len(state.Entries))
	}
	// A capture taken past the entry's deadline leaves it out.
	clk.Advance(2 * time.Minute)
	if state := src.CaptureState(); len(state.Entries) != 0 {
		t.Errorf("expired entry captured: %d entries", len(state.Entries))
	}
}

func TestSnapshotMultiKeyType(t *testing.T) {
	src, clk := newTestCache(t)
	err := src.RegisterFunction("f",
		KeyTypeSpec{Name: "a"},
		KeyTypeSpec{Name: "b", Index: "lsh", Dim: 2},
	)
	if err != nil {
		t.Fatal(err)
	}
	src.Put("f", PutRequest{
		Keys: map[string]vec.Vector{
			"a": {1, 2},
			"b": {3, 4},
		},
		Value: "multi", TTL: time.Hour,
	})
	dst := New(Config{Clock: clk, DisableDropout: true, Tuner: TunerConfig{WarmupZ: 1}})
	if _, err := dst.Restore(src.CaptureState()); err != nil {
		t.Fatal(err)
	}
	if res, _ := dst.Lookup("f", "a", vec.Vector{1, 2}); !res.Hit || res.Value != "multi" {
		t.Error("key type a not restored")
	}
	if res, _ := dst.Lookup("f", "b", vec.Vector{3, 4}); !res.Hit || res.Value != "multi" {
		t.Error("key type b not restored")
	}
	if dst.Len() != 1 {
		t.Errorf("Len = %d, want 1 (single value, two indices)", dst.Len())
	}
}
