package main

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/service"
	"repro/internal/vec"
)

func keysOf(pool []vec.Vector, size int) func([]byte) ([]vec.Vector, error) {
	return func(v []byte) ([]vec.Vector, error) {
		i, err := decodeValue(v, size, len(pool))
		if err != nil {
			return nil, err
		}
		return []vec.Vector{pool[i]}, nil
	}
}

var testPool = []vec.Vector{{0, 0}, {3, 4}, {6, 8}}

func TestCheckHitAcceptsAnHonestHit(t *testing.T) {
	h := served{Distance: 5, Threshold: 5, Value: encodeValue(1, 16)}
	if err := checkHit(vec.Vector{0, 0}, h, keysOf(testPool, 16)); err != nil {
		t.Fatalf("honest hit rejected: %v", err)
	}
}

func TestCheckHitRejectsDistanceOverThreshold(t *testing.T) {
	h := served{Distance: 5, Threshold: 4.5, Value: encodeValue(1, 16)}
	err := checkHit(vec.Vector{0, 0}, h, keysOf(testPool, 16))
	if err == nil || !strings.Contains(err.Error(), "beyond threshold") {
		t.Fatalf("hit beyond the threshold accepted: %v", err)
	}
}

func TestCheckHitRejectsValueOfAKeyAtAnotherDistance(t *testing.T) {
	// The reply claims distance 5 but serves the value stored under
	// {6, 8}, which lies at distance 10 from the query.
	h := served{Distance: 5, Threshold: 20, Value: encodeValue(2, 16)}
	err := checkHit(vec.Vector{0, 0}, h, keysOf(testPool, 16))
	if err == nil || !strings.Contains(err.Error(), "stored keys lie at 10") {
		t.Fatalf("value from the wrong key accepted: %v", err)
	}
}

func TestCheckHitRejectsCorruptValue(t *testing.T) {
	v := encodeValue(1, 16)
	v[11] ^= 0xff
	err := checkHit(vec.Vector{0, 0}, served{Distance: 5, Threshold: 5, Value: v}, keysOf(testPool, 16))
	if !errors.Is(err, errBadValue) {
		t.Fatalf("corrupt value accepted: %v", err)
	}
}

func TestLookupHotRejectsWrongValueHit(t *testing.T) {
	w := &lookupHot{pool: testPool}
	good := service.LookupResult{Hit: true, Distance: 0, Threshold: 0, Value: encodeValue(1, hotValueSize)}
	if err := w.checkHit(1, good); err != nil {
		t.Fatalf("exact hit rejected: %v", err)
	}
	// A hit within a loose threshold, at the true distance, that serves
	// another key's value: legal for an approximate cache, but lookup-hot
	// queries stored keys, so it is a wrong-value hit.
	wrong := service.LookupResult{Hit: true, Distance: 5, Threshold: 6, Value: encodeValue(0, hotValueSize)}
	err := w.checkHit(1, wrong)
	if err == nil || !strings.Contains(err.Error(), "wrong-value hit") {
		t.Fatalf("wrong-value hit accepted: %v", err)
	}
}

func TestCheckStats(t *testing.T) {
	before := service.StatsPayload{Hits: 10, Misses: 5, Dropouts: 2, Puts: 7}
	// 6 lookups: 3 hits, 2 misses, 1 dropout; Misses counts the dropout.
	after := service.StatsPayload{Hits: 13, Misses: 8, Dropouts: 3, Puts: 10}
	ok := lookupTally{Lookups: 6, Hits: 3, Dropouts: 1, Puts: 3}
	if err := checkStats(before, after, ok); err != nil {
		t.Fatalf("consistent counters rejected: %v", err)
	}
	for name, tally := range map[string]lookupTally{
		"lookups":  {Lookups: 7, Hits: 3, Dropouts: 1, Puts: 3},
		"hits":     {Lookups: 6, Hits: 4, Dropouts: 1, Puts: 3},
		"dropouts": {Lookups: 6, Hits: 3, Dropouts: 0, Puts: 3},
		"puts":     {Lookups: 6, Hits: 3, Dropouts: 1, Puts: 2},
	} {
		if err := checkStats(before, after, tally); err == nil {
			t.Errorf("%s mismatch accepted", name)
		}
	}
}

func TestValueRoundTrip(t *testing.T) {
	for _, idx := range []int{0, 1, 255, 1023} {
		got, err := decodeValue(encodeValue(idx, 2048), 2048, 1024)
		if err != nil || got != idx {
			t.Fatalf("decode(encode(%d)) = %d, %v", idx, got, err)
		}
	}
	if _, err := decodeValue(encodeValue(5, 64), 64, 4); !errors.Is(err, errBadValue) {
		t.Fatalf("index beyond the pool accepted: %v", err)
	}
	if _, err := decodeValue(encodeValue(1, 64), 2048, 4); !errors.Is(err, errBadValue) {
		t.Fatalf("value of the wrong size accepted: %v", err)
	}
}

// recognitionWith builds an apps-recognition workload holding the given
// frame keys, one round of puts, and one recorded hit.
func recognitionWith(h recogHit, puts map[int][]int) *appsRecognition {
	return &appsRecognition{
		keys: []vec.Vector{{0, 0}, {3, 4}, {6, 8}},
		puts: map[int]map[int][]int{0: puts},
		hits: []recogHit{h},
	}
}

func TestRecognitionVerify(t *testing.T) {
	classes := 10
	// Frame 0 hit label 7 at distance 5: frame 1 (at distance 5) was put
	// with label 7.
	ok := recogHit{round: 0, frame: 0, res: served{Distance: 5, Threshold: 6, Value: labelValue(7)}}
	if err := recognitionWith(ok, map[int][]int{7: {1}}).verifyHits(classes); err != nil {
		t.Fatalf("honest hit rejected: %v", err)
	}
	// Planted faults: no put carried the label; the label's put lies at
	// another distance; the distance exceeds the threshold.
	for name, c := range map[string]struct {
		h    recogHit
		puts map[int][]int
	}{
		"label never put":    {ok, map[int][]int{3: {1}}},
		"wrong distance":     {ok, map[int][]int{7: {2}}},
		"beyond threshold":   {recogHit{0, 0, served{Distance: 5, Threshold: 4, Value: labelValue(7)}}, map[int][]int{7: {1}}},
		"undecodable value":  {recogHit{0, 0, served{Distance: 5, Threshold: 6, Value: []byte("x")}}, map[int][]int{7: {1}}},
		"label out of range": {recogHit{0, 0, served{Distance: 5, Threshold: 6, Value: labelValue(12)}}, map[int][]int{12: {1}}},
	} {
		if err := recognitionWith(c.h, c.puts).verifyHits(classes); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
