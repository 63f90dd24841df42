package store

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/telemetry"
	"repro/internal/vec"
)

// newCache returns a deterministic cache on a virtual clock wired to the
// given store (nil for none).
func newCache(s core.Store, at time.Time) (*core.Cache, *clock.Virtual) {
	clk := clock.NewVirtual(at)
	c := core.New(core.Config{
		Clock:          clk,
		Store:          s,
		DisableDropout: true,
		Tuner:          core.TunerConfig{WarmupZ: 1},
	})
	return c, clk
}

func register(t *testing.T, c *core.Cache) {
	t.Helper()
	if err := c.RegisterFunction("f", core.KeyTypeSpec{Name: "scalar"}); err != nil {
		t.Fatal(err)
	}
}

func put(t *testing.T, c *core.Cache, k float64, v any) core.ID {
	t.Helper()
	id, err := c.Put("f", core.PutRequest{
		Keys:  map[string]vec.Vector{"scalar": {k}},
		Value: v, Cost: time.Millisecond, Size: 64, TTL: time.Hour, App: "app",
	})
	if err != nil {
		t.Fatal(err)
	}
	return id
}

// openTest opens a log in dir with always-fsync (every append durable,
// so "crash" == abandon the log without Close) and a small segment size
// to exercise rolling.
func openTest(t *testing.T, dir string) *Log {
	t.Helper()
	l, err := Open(Config{Dir: dir, Fsync: FsyncAlways, SegmentBytes: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// recoverInto replays dir into a fresh cache booted at the given time.
func recoverInto(t *testing.T, dir string, at time.Time) (*core.Cache, *Log, RecoveryStats) {
	t.Helper()
	l := openTest(t, dir)
	state, rstats, err := l.Recover()
	if err != nil {
		t.Fatal(err)
	}
	c, _ := newCache(l, at)
	if _, err := c.Restore(state); err != nil {
		t.Fatal(err)
	}
	return c, l, rstats
}

func wantHit(t *testing.T, c *core.Cache, k float64, v any) {
	t.Helper()
	res, err := c.Lookup("f", "scalar", vec.Vector{k})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Hit || res.Value != v {
		t.Fatalf("key %v: hit=%v value=%v, want %v", k, res.Hit, res.Value, v)
	}
}

func wantMiss(t *testing.T, c *core.Cache, k float64) {
	t.Helper()
	if res, _ := c.Lookup("f", "scalar", vec.Vector{k}); res.Hit {
		t.Fatalf("key %v: unexpected hit (%v)", k, res.Value)
	}
}

func TestLogReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l := openTest(t, dir)
	c, _ := newCache(l, time.Unix(0, 0))
	register(t, c)

	const n = 200 // enough appends to roll segments at 4 KiB
	for i := 0; i < n; i++ {
		put(t, c, float64(i), fmt.Sprintf("v%d", i))
	}
	if _, err := c.InvalidateRadius("f", "scalar", vec.Vector{7}, 0.1); err != nil {
		t.Fatal(err)
	}
	if s := l.Stats(); s.Segments < 2 {
		t.Fatalf("segments = %d, want rolling at small SegmentBytes", s.Segments)
	}
	// Crash: abandon l without Close. FsyncAlways means every record is
	// already flushed.
	c2, _, rstats := recoverInto(t, dir, time.Unix(0, 0).Add(time.Minute))
	if !rstats.TornTail && rstats.SnapshotUsed {
		t.Fatalf("unexpected recovery shape: %+v", rstats)
	}
	if rstats.Entries != n-1 {
		t.Fatalf("recovered %d entries, want %d", rstats.Entries, n-1)
	}
	for i := 0; i < n; i++ {
		if i == 7 {
			wantMiss(t, c2, 7)
			continue
		}
		wantHit(t, c2, float64(i), fmt.Sprintf("v%d", i))
	}
}

func TestSnapshotPlusTailRecovery(t *testing.T) {
	dir := t.TempDir()
	l := openTest(t, dir)
	c, _ := newCache(l, time.Unix(0, 0))
	register(t, c)
	for i := 0; i < 150; i++ {
		put(t, c, float64(i), fmt.Sprintf("v%d", i))
	}
	preSnap := c.CaptureState()
	if _, err := l.Snapshot(c); err != nil {
		t.Fatal(err)
	}
	// Tail activity after the snapshot.
	for i := 150; i < 170; i++ {
		put(t, c, float64(i), fmt.Sprintf("v%d", i))
	}
	if _, err := c.InvalidateRadius("f", "scalar", vec.Vector{3}, 0.1); err != nil {
		t.Fatal(err)
	}

	c2, _, rstats := recoverInto(t, dir, time.Unix(0, 0).Add(time.Minute))
	if !rstats.SnapshotUsed {
		t.Fatalf("snapshot not used: %+v", rstats)
	}
	if rstats.Entries != 169 {
		t.Fatalf("recovered %d entries, want 169", rstats.Entries)
	}
	for i := 0; i < 170; i++ {
		if i == 3 {
			wantMiss(t, c2, 3)
			continue
		}
		wantHit(t, c2, float64(i), fmt.Sprintf("v%d", i))
	}
	// Tuner state restored exactly as snapshotted (tail had no
	// re-registration, so the snapshot's tuner is authoritative).
	got := c2.CaptureState().Functions[0].KeyTypes[0].Tuner
	want := preSnap.Functions[0].KeyTypes[0].Tuner
	if got.Threshold != want.Threshold || got.Active != want.Active {
		t.Errorf("tuner after recovery = %+v, want %+v", got, want)
	}
}

func TestSnapshotCompactsOldFiles(t *testing.T) {
	dir := t.TempDir()
	l := openTest(t, dir)
	c, _ := newCache(l, time.Unix(0, 0))
	register(t, c)
	for i := 0; i < 200; i++ {
		put(t, c, float64(i), i)
	}
	if _, err := l.Snapshot(c); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Snapshot(c); err != nil { // second cycle retires the first snapshot too
		t.Fatal(err)
	}
	segs, snaps, err := scanDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != 1 {
		t.Errorf("snapshots on disk = %d, want 1 after compaction", len(snaps))
	}
	for _, seq := range segs {
		if seq < snaps[0] {
			t.Errorf("segment %d predates snapshot %d — compaction missed it", seq, snaps[0])
		}
	}
	if s := l.Stats(); s.CompactedSegs == 0 {
		t.Error("no segments compacted")
	}
}

func TestRecoveryDropsEntriesExpiredWhileDown(t *testing.T) {
	dir := t.TempDir()
	l := openTest(t, dir)
	c, _ := newCache(l, time.Unix(0, 0))
	register(t, c)
	if _, err := c.Put("f", core.PutRequest{
		Keys: map[string]vec.Vector{"scalar": {1}}, Value: "short", TTL: time.Minute,
	}); err != nil {
		t.Fatal(err)
	}
	put(t, c, 2, "long") // one-hour TTL

	// The process is down for five minutes; the one-minute entry's
	// absolute deadline passes in the interim.
	c2, _, _ := recoverInto(t, dir, time.Unix(0, 0).Add(5*time.Minute))
	wantMiss(t, c2, 1)
	wantHit(t, c2, 2, "long")
}

func TestLogSkipsUnpersistableValues(t *testing.T) {
	dir := t.TempDir()
	l := openTest(t, dir)
	c, _ := newCache(l, time.Unix(0, 0))
	register(t, c)
	if _, err := c.Put("f", core.PutRequest{
		Keys: map[string]vec.Vector{"scalar": {1}}, Value: make(chan int),
	}); err != nil {
		t.Fatal(err)
	}
	put(t, c, 2, "ok")
	if s := l.Stats(); s.SkippedValues != 1 {
		t.Errorf("skipped values = %d, want 1", s.SkippedValues)
	}
	c2, _, rstats := recoverInto(t, dir, time.Unix(0, 0).Add(time.Minute))
	if rstats.Entries != 1 {
		t.Errorf("recovered %d entries, want 1", rstats.Entries)
	}
	wantHit(t, c2, 2, "ok")
}

func TestReRegisterInTailResetsTuner(t *testing.T) {
	dir := t.TempDir()
	l := openTest(t, dir)
	c, _ := newCache(l, time.Unix(0, 0))
	register(t, c)
	for i := 0; i < 120; i++ {
		put(t, c, float64(i), i)
	}
	if _, err := l.Snapshot(c); err != nil {
		t.Fatal(err)
	}
	register(t, c) // re-registration resets the tuner (§4.3), logged in the tail

	c2, _, _ := recoverInto(t, dir, time.Unix(0, 0).Add(time.Minute))
	tuner := c2.CaptureState().Functions[0].KeyTypes[0].Tuner
	if tuner.Active || tuner.Threshold != 0 || tuner.Puts != 0 {
		t.Errorf("tuner = %+v, want reset state after replayed re-registration", tuner)
	}
}

func TestParseFsyncPolicy(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want FsyncPolicy
		ok   bool
	}{
		{"always", FsyncAlways, true},
		{"interval", FsyncInterval, true},
		{"never", FsyncNever, true},
		{"", FsyncInterval, true},
		{"sometimes", "", false},
	} {
		got, err := ParseFsyncPolicy(tc.in)
		if (err == nil) != tc.ok || got != tc.want {
			t.Errorf("ParseFsyncPolicy(%q) = %v, %v", tc.in, got, err)
		}
	}
}

func TestIDWatermarkSurvivesReplay(t *testing.T) {
	dir := t.TempDir()
	l := openTest(t, dir)
	c, _ := newCache(l, time.Unix(0, 0))
	register(t, c)
	var maxID core.ID
	for i := 0; i < 10; i++ {
		maxID = put(t, c, float64(i), i)
	}
	c2, l2, _ := recoverInto(t, dir, time.Unix(0, 0).Add(time.Minute))
	id := put(t, c2, 99, "new")
	if id <= maxID {
		t.Errorf("post-recovery ID %d not past watermark %d", id, maxID)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestInstrumentAndClose(t *testing.T) {
	dir := t.TempDir()
	l := openTest(t, dir)
	c, _ := newCache(l, time.Unix(0, 0))
	register(t, c)
	put(t, c, 1, "v")
	l.Instrument(telemetry.NewRegistry())
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Appends after Close are dropped, not panics.
	l.LogDelete(1)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestIntervalSyncParksWhileIdle: under the interval policy an idle log
// neither fsyncs nor wakes its syncer, and one append is synced about
// one interval later, after which the syncer parks again. The idle
// counts do not depend on timer precision; the sync deadline is loose
// so a loaded host cannot fail it.
func TestIntervalSyncParksWhileIdle(t *testing.T) {
	const interval = 40 * time.Millisecond
	l, err := Open(Config{Dir: t.TempDir(), Fsync: FsyncInterval, FsyncInterval: interval})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	idle := func(phase string, wantFsyncs, wantWakes int64) {
		t.Helper()
		time.Sleep(6 * interval)
		if s := l.Stats(); s.Fsyncs != wantFsyncs || s.FlushWakes != wantWakes {
			t.Fatalf("%s: %d fsyncs, %d wake-ups over 6 idle intervals, want %d and %d",
				phase, s.Fsyncs, s.FlushWakes, wantFsyncs, wantWakes)
		}
	}
	idle("after open", 0, 0)

	appended := time.Now()
	l.LogDelete(1)
	for l.Stats().Fsyncs == 0 {
		if time.Since(appended) > time.Second {
			t.Fatalf("append not synced within 1s (interval %v)", interval)
		}
		time.Sleep(time.Millisecond)
	}
	idle("after the sync", 1, 1)
}
