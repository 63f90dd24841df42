package whatif

import (
	"testing"
	"time"

	"repro/internal/vec"
)

// TestIdleConsumerParks: a started profiler with nothing to do sleeps
// until a push signals it. An event placed in the ring without a signal
// is still there well after any polling interval would have drained it,
// and the next tapped event wakes the consumer, which drains both.
func TestIdleConsumerParks(t *testing.T) {
	p := New(Config{Rate: 1})
	p.Start()
	defer p.Close()
	waitFor(t, "consumer to park", p.parked.Load)

	if !p.ring.push(event{kind: evLookup, fn: "f", keyType: "k", key: vec.Vector{1}, dist: -1}) {
		t.Fatal("push into an empty ring failed")
	}
	time.Sleep(100 * time.Millisecond)
	if n := p.ring.deq.Load(); n != 0 {
		t.Fatalf("parked consumer drained %d events without a signal", n)
	}

	p.TapLookup("f", "k", vec.Vector{2}, -1, 0, false, 1)
	waitFor(t, "both events to drain", func() bool { return p.ring.deq.Load() == 2 })
	if got := p.sampledLookups.Load(); got != 1 {
		t.Fatalf("sampled lookups = %d, want 1", got)
	}
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}
