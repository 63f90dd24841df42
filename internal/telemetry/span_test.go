package telemetry

import (
	"encoding/json"
	"sync"
	"testing"
	"time"
)

func TestTraceIDString(t *testing.T) {
	id := TraceID(0xdeadbeef)
	if got := id.String(); got != "00000000deadbeef" {
		t.Fatalf("String() = %q", got)
	}
	back, err := ParseTraceID(id.String())
	if err != nil || back != id {
		t.Fatalf("ParseTraceID round trip: %v %v", back, err)
	}
	if _, err := ParseTraceID("not-hex"); err == nil {
		t.Fatal("bad trace id accepted")
	}
}

func TestTraceIDJSON(t *testing.T) {
	id := TraceID(1<<63 + 12345) // above 2^53: unsafe as a JSON number
	b, err := json.Marshal(id)
	if err != nil {
		t.Fatal(err)
	}
	if b[0] != '"' {
		t.Fatalf("trace id marshalled as a number: %s", b)
	}
	var back TraceID
	if err := json.Unmarshal(b, &back); err != nil || back != id {
		t.Fatalf("JSON round trip: %v %v", back, err)
	}
	// Bare numbers are accepted for hand-written inputs.
	if err := json.Unmarshal([]byte("7"), &back); err != nil || back != 7 {
		t.Fatalf("bare number: %v %v", back, err)
	}
}

func TestNewTraceIDUnique(t *testing.T) {
	seen := make(map[TraceID]bool)
	for i := 0; i < 10000; i++ {
		id := NewTraceID()
		if id == 0 {
			t.Fatal("zero trace id minted")
		}
		if seen[id] {
			t.Fatalf("duplicate trace id %s", id)
		}
		seen[id] = true
	}
}

func TestSpanRecorderBasics(t *testing.T) {
	r := NewSpanRecorder(8, 4, 2)
	id := NewTraceID()
	r.Record(Span{Trace: id, Layer: "core", Function: "f", Outcome: OutcomeHit, DurationNs: 100})
	r.Record(Span{Trace: NewTraceID(), Layer: "core", Function: "g", Outcome: OutcomeMiss, DurationNs: 50})
	if r.Len() != 2 || r.Capacity() != 8 {
		t.Fatalf("len=%d capacity=%d", r.Len(), r.Capacity())
	}
	all := r.Snapshot(SpanFilter{})
	if len(all) != 2 || all[0].Seq != 1 || all[1].Seq != 2 {
		t.Fatalf("snapshot wrong: %+v", all)
	}
	if got := r.Find(id); len(got) != 1 || got[0].Function != "f" {
		t.Fatalf("Find: %+v", got)
	}
	if got := r.Snapshot(SpanFilter{Outcome: OutcomeMiss}); len(got) != 1 || got[0].Function != "g" {
		t.Fatalf("outcome filter: %+v", got)
	}
	if got := r.Snapshot(SpanFilter{MinDuration: 80}); len(got) != 1 || got[0].Function != "f" {
		t.Fatalf("min-duration filter: %+v", got)
	}
}

func TestSpanRecorderNilSafe(t *testing.T) {
	var r *SpanRecorder
	r.Record(Span{Outcome: OutcomeHit}) // must not panic
	if r.Snapshot(SpanFilter{}) != nil || r.Len() != 0 || r.Capacity() != 0 || r.Find(1) != nil {
		t.Fatal("nil recorder should report empty")
	}
	var tel *Telemetry
	tel.RecordSpan(Span{Outcome: OutcomeHit}) // must not panic
}

// Tail-based retention: an anomaly (error/dropout) and the slowest spans
// must survive a hit storm that wraps the recent ring many times over.
func TestSpanRecorderTailRetention(t *testing.T) {
	r := NewSpanRecorder(8, 4, 2)
	errTrace := NewTraceID()
	slowTrace := NewTraceID()
	r.Record(Span{Trace: errTrace, Outcome: OutcomeError, Err: "boom", DurationNs: 10})
	r.Record(Span{Trace: slowTrace, Outcome: OutcomeHit, DurationNs: 1e9})
	for i := 0; i < 1000; i++ {
		r.Record(Span{Trace: NewTraceID(), Outcome: OutcomeHit, DurationNs: 100})
	}
	if got := r.Find(errTrace); len(got) != 1 || got[0].Err != "boom" {
		t.Fatalf("error span lost to the hit storm: %+v", got)
	}
	if got := r.Find(slowTrace); len(got) != 1 || got[0].DurationNs != 1e9 {
		t.Fatalf("slow span lost to the hit storm: %+v", got)
	}
	// Dropouts, breaker transitions and what-if divergences get the same
	// treatment as errors.
	for _, sp := range []Span{
		{Trace: NewTraceID(), Outcome: OutcomeDropout, DurationNs: 5},
		NoteSpan("mesh", OutcomeBreaker, "B closed->open", time.Unix(0, 1), 0),
		NoteSpan("whatif", OutcomeDivergence, "f/k predicted 0.5 measured 0.1", time.Unix(0, 1), 0),
	} {
		r.Record(sp)
		for i := 0; i < 1000; i++ {
			r.Record(Span{Trace: NewTraceID(), Outcome: OutcomeHit, DurationNs: 100})
		}
		if got := r.Find(sp.Trace); len(got) != 1 {
			t.Fatalf("%s span lost: %+v", sp.Outcome, got)
		}
	}
}

// The slowest-N heap keeps exactly the N largest durations ever seen.
func TestSpanRecorderSlowestN(t *testing.T) {
	r := NewSpanRecorder(4, 4, 3)
	for i := 1; i <= 100; i++ {
		r.Record(Span{Trace: TraceID(i), Outcome: OutcomeHit, DurationNs: int64(i)})
	}
	got := r.Snapshot(SpanFilter{MinDuration: 90})
	// Ring holds 97..100; slowest-3 holds 98..100 (dedup overlaps).
	want := map[int64]bool{97: true, 98: true, 99: true, 100: true}
	for _, sp := range got {
		if !want[sp.DurationNs] {
			t.Fatalf("unexpected slow span kept: %+v", sp)
		}
		delete(want, sp.DurationNs)
	}
	if len(want) != 0 {
		t.Fatalf("slow spans missing: %v (got %+v)", want, got)
	}
}

func TestSpanFilterLimitKeepsMostRecent(t *testing.T) {
	r := NewSpanRecorder(64, 4, 2)
	for i := 1; i <= 20; i++ {
		r.Record(Span{Trace: TraceID(i), Outcome: OutcomeHit, DurationNs: int64(i)})
	}
	got := r.Snapshot(SpanFilter{Limit: 3})
	if len(got) != 3 || got[0].Seq != 18 || got[2].Seq != 20 {
		t.Fatalf("limit should keep the newest spans: %+v", got)
	}
}

// Ring wraparound under concurrent writers: no torn spans, and the
// invariants Len() == records issued, Capacity() == ring size hold.
// Run under -race.
func TestSpanRecorderConcurrent(t *testing.T) {
	r := NewSpanRecorder(64, 16, 8)
	const writers, perWriter = 8, 5000
	stop := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
				for _, sp := range r.Snapshot(SpanFilter{}) {
					// Writers stamp Trace == DurationNs; a torn slot
					// would break the equality.
					if uint64(sp.Trace) != uint64(sp.DurationNs) {
						t.Errorf("torn span: %+v", sp)
						return
					}
				}
			}
		}
	}()
	var writersWG sync.WaitGroup
	for w := 0; w < writers; w++ {
		writersWG.Add(1)
		go func(w int) {
			defer writersWG.Done()
			for i := 0; i < perWriter; i++ {
				v := uint64(w*perWriter + i + 1)
				out := OutcomeHit
				if v%97 == 0 {
					out = OutcomeError
				}
				r.Record(Span{Trace: TraceID(v), DurationNs: int64(v), Outcome: out})
			}
		}(w)
	}
	writersWG.Wait()
	close(stop)
	readers.Wait()
	if r.Len() != writers*perWriter {
		t.Fatalf("Len() = %d, want %d", r.Len(), writers*perWriter)
	}
	if r.Capacity() != 64 {
		t.Fatalf("Capacity() = %d, want 64", r.Capacity())
	}
	// The slowest span ever recorded must have been retained.
	if got := r.Find(TraceID(writers * perWriter)); len(got) != 1 {
		t.Fatalf("slowest span not retained: %+v", got)
	}
}

func TestSpanRecorderCapacityRounding(t *testing.T) {
	r := NewSpanRecorder(100, 10, 5)
	if r.Capacity() != 128 {
		t.Fatalf("capacity should round up to a power of two, got %d", r.Capacity())
	}
	r = NewSpanRecorder(0, 0, 0)
	if r.Capacity() != DefaultSpanCapacity {
		t.Fatalf("default capacity = %d, want %d", r.Capacity(), DefaultSpanCapacity)
	}
}
