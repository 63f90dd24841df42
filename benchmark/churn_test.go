package main

import (
	"context"
	"net"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/service"
	"repro/internal/vec"
)

// inProcessDaemon serves a fresh cache on a Unix socket for the test's
// lifetime and returns connections to it.
func inProcessDaemon(t *testing.T, cfg core.Config, n int) []*conn {
	t.Helper()
	sock := filepath.Join(t.TempDir(), "d.sock")
	l, err := net.Listen("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		service.NewServer(core.New(cfg)).Serve(ctx, l)
	}()
	var ids atomic.Uint64
	p := newPass(false, &ids)
	cs := make([]*conn, n)
	for i := range cs {
		cl, err := service.DialConfig("unix", sock, "app", service.ClientConfig{MaxAttempts: 1})
		if err != nil {
			t.Fatal(err)
		}
		cs[i] = &conn{cl: cl, p: p}
	}
	t.Cleanup(func() {
		closeAll(cs)
		cancel()
		<-done
	})
	return cs
}

func TestChurnFailedSubOpLowersSuccessRate(t *testing.T) {
	cs := inProcessDaemon(t, core.Config{MaxEntries: churnCapacity}, 1)
	w := &churnEvict{}
	if err := w.prepare(1); err != nil {
		t.Fatal(err)
	}
	if err := w.setup(cs); err != nil {
		t.Fatal(err)
	}
	before, err := cs[0].cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	// Plant one empty pose among unseeded ones: its lookup misses and
	// its sub-put is refused, while the daemon admits its siblings.
	poses := []int{churnPoses - 1, churnPoses - 2, churnPoses - 3, churnPoses - 4, churnPoses - 5}
	w.poses[poses[2]] = vec.Vector{}
	ph := new(phase)
	w.request(cs[0].p, cs[0], ph, poses, time.Now())
	w.request(cs[0].p, cs[0], ph, poses[3:], time.Now())
	after, err := cs[0].cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if err := checkStats(before, after, ph.tally); err != nil {
		t.Fatalf("a failed sub-op broke the counter check: %v", err)
	}
	o := &outcome{}
	o.addClosed(ph, 2, time.Second)
	if ph.failed != 1 || ph.attempted != 2 {
		t.Fatalf("%d of %d requests failed, want 1 of 2", ph.failed, ph.attempted)
	}
	if r := endToEnd(o)["success_rate"].Value; r != 0.5 {
		t.Fatalf("success_rate %v, want 0.5", r)
	}
}
