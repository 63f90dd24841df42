package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"repro/internal/service"
	"repro/internal/vec"
)

// A correctness check returns an error for the first violation it
// sees; any error fails the run, which then exits nonzero and prints
// no metrics.

// served is the part of a lookup reply the hit checks read.
type served struct {
	Distance  float64
	Threshold float64
	Value     []byte
}

// checkHit verifies one served hit: its distance is within the
// threshold in force, and the value it returned was stored under a key
// at exactly the reported distance from the query. storedKeys maps the
// value back to the keys it was stored under (it errors on a value the
// benchmark never stored).
func checkHit(query vec.Vector, h served, storedKeys func([]byte) ([]vec.Vector, error)) error {
	if !(h.Distance <= h.Threshold) {
		return fmt.Errorf("hit at distance %g beyond threshold %g", h.Distance, h.Threshold)
	}
	keys, err := storedKeys(h.Value)
	if err != nil {
		return fmt.Errorf("hit value: %w", err)
	}
	nearest := math.Inf(1)
	for _, k := range keys {
		d := vec.EuclideanMetric{}.Distance(query, k)
		if sameDistance(d, h.Distance) {
			return nil
		}
		nearest = math.Min(nearest, d)
	}
	return fmt.Errorf("hit reports distance %g but the value's stored keys lie at %g (%d keys)",
		h.Distance, nearest, len(keys))
}

// sameDistance compares a distance recomputed here with one the daemon
// computed: the same arithmetic, so they agree to rounding.
func sameDistance(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(a))
}

// checkExact verifies a hit on a workload whose queries are stored keys
// and whose threshold admits no approximate reuse: the value served must
// be the one stored under the query's own key.
func checkExact(queryIdx, servedIdx int) error {
	if queryIdx != servedIdx {
		return fmt.Errorf("wrong-value hit: query %d served the value of %d", queryIdx, servedIdx)
	}
	return nil
}

// lookupTally is the benchmark's own count of the lookups it issued and
// the outcomes the daemon replied with.
type lookupTally struct {
	Lookups, Hits, Dropouts, Puts int64
}

// checkStats verifies the daemon's counters moved exactly as the
// benchmark's own tally says: hits + misses + dropouts == lookups
// issued, with the hit and dropout counts matching the replies, and
// every put the benchmark sent admitted. service.StatsPayload counts a
// dropout as a miss too, so its Misses already includes Dropouts.
func checkStats(before, after service.StatsPayload, t lookupTally) error {
	hits := after.Hits - before.Hits
	dropouts := after.Dropouts - before.Dropouts
	misses := after.Misses - before.Misses - dropouts
	puts := after.Puts - before.Puts
	switch {
	case hits+misses+dropouts != t.Lookups:
		return fmt.Errorf("daemon counted hits %d + misses %d + dropouts %d = %d lookups, benchmark issued %d",
			hits, misses, dropouts, hits+misses+dropouts, t.Lookups)
	case hits != t.Hits:
		return fmt.Errorf("daemon counted %d hits, replies carried %d", hits, t.Hits)
	case dropouts != t.Dropouts:
		return fmt.Errorf("daemon counted %d dropouts, replies carried %d", dropouts, t.Dropouts)
	case puts != t.Puts:
		return fmt.Errorf("daemon counted %d puts, benchmark sent %d", puts, t.Puts)
	}
	return nil
}

// Values of the lookup-hot and churn-evict workloads identify the key
// they were stored under: a magic word, the key's index in the pool,
// and filler bytes derived from the index, so a value that is served
// for the wrong key or arrives corrupted fails to decode.
const valueMagic = 0x504c4b31 // "PLK1"

func encodeValue(idx, size int) []byte {
	if size < 8 {
		size = 8
	}
	b := make([]byte, size)
	binary.BigEndian.PutUint32(b, valueMagic)
	binary.BigEndian.PutUint32(b[4:], uint32(idx))
	for i := 8; i < size; i++ {
		b[i] = filler(idx, i)
	}
	return b
}

func filler(idx, i int) byte { return byte(idx*131 + i*7) }

var errBadValue = errors.New("value was not stored by this benchmark")

func decodeValue(b []byte, size, poolLen int) (int, error) {
	if len(b) != size || len(b) < 8 || binary.BigEndian.Uint32(b) != valueMagic {
		return 0, errBadValue
	}
	idx := int(binary.BigEndian.Uint32(b[4:]))
	if idx >= poolLen {
		return 0, fmt.Errorf("%w: index %d beyond the pool of %d", errBadValue, idx, poolLen)
	}
	for i := 8; i < size; i++ {
		if b[i] != filler(idx, i) {
			return 0, fmt.Errorf("%w: corrupt byte %d", errBadValue, i)
		}
	}
	return idx, nil
}
