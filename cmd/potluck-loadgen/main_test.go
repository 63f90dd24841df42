package main

import (
	"fmt"
	"testing"

	"repro/internal/service"
	"repro/internal/vec"
)

// checkSplit asserts that frames hold subs in order, each frame within
// the sub-op and byte limits.
func checkSplit(t *testing.T, subs []service.PutSub, frames [][]service.PutSub, maxBytes int) {
	t.Helper()
	next := 0
	for i, f := range frames {
		if len(f) == 0 || len(f) > service.MaxBatch {
			t.Fatalf("frame %d has %d sub-ops", i, len(f))
		}
		for _, s := range f {
			if s.Function != subs[next].Function {
				t.Fatalf("frame %d: sub-op %q out of order, want %q", i, s.Function, subs[next].Function)
			}
			next++
		}
		req := &service.Request{Type: service.MsgMultiPut, App: seedApp, Value: service.EncodePutSubs(f)}
		if n := len(service.EncodeRequest(req)); n > maxBytes && len(f) > 1 {
			t.Fatalf("frame %d is %d bytes, limit %d", i, n, maxBytes)
		}
	}
	if next != len(subs) {
		t.Fatalf("frames carry %d sub-ops, want %d", next, len(subs))
	}
}

func TestSplitPutsByCount(t *testing.T) {
	subs := make([]service.PutSub, 2*service.MaxBatch+5)
	for i := range subs {
		subs[i] = service.PutSub{Function: fmt.Sprint(i), Keys: map[string]vec.Vector{"k": {1}}}
	}
	frames := splitPuts(subs, seedApp, service.MaxMessageSize)
	if len(frames) != 3 || len(frames[0]) != service.MaxBatch || len(frames[2]) != 5 {
		t.Fatalf("frame sizes %d/%d/%d..., want MaxBatch, MaxBatch, 5", len(frames[0]), len(frames[1]), len(frames[len(frames)-1]))
	}
	checkSplit(t, subs, frames, service.MaxMessageSize)
}

// TestSplitPutsByBytes: 768-d keys overflow a frame long before
// MaxBatch sub-ops do — 4 096 of them encode to ~25 MB — so the split
// must also cut by encoded size, the cut landing exactly at the limit.
func TestSplitPutsByBytes(t *testing.T) {
	key := make(vec.Vector, 768)
	subs := make([]service.PutSub, 40)
	for i := range subs {
		subs[i] = service.PutSub{Function: fmt.Sprint(i), Keys: map[string]vec.Vector{"downsamp": key}, Value: []byte("v")}
	}
	one := len(service.EncodeRequest(&service.Request{
		Type: service.MsgMultiPut, App: seedApp, Value: service.EncodePutSubs(subs[:1]),
	}))
	for _, perFrame := range []int{1, 3, 7} {
		// The limit fits perFrame sub-ops exactly; one byte less fits one fewer.
		limit := one + (perFrame-1)*(one-len(service.EncodeRequest(&service.Request{
			Type: service.MsgMultiPut, App: seedApp, Value: service.EncodePutSubs(nil),
		})))
		frames := splitPuts(subs, seedApp, limit)
		if len(frames[0]) != perFrame {
			t.Fatalf("limit %d: first frame has %d sub-ops, want %d", limit, len(frames[0]), perFrame)
		}
		checkSplit(t, subs, frames, limit)
		if perFrame > 1 {
			if got := splitPuts(subs, seedApp, limit-1); len(got[0]) != perFrame-1 {
				t.Fatalf("limit %d: first frame has %d sub-ops, want %d", limit-1, len(got[0]), perFrame-1)
			}
		}
	}
	// A sub-op larger than any frame travels alone.
	frames := splitPuts(subs[:3], seedApp, 10)
	if len(frames) != 3 {
		t.Fatalf("oversize sub-ops: %d frames, want 3", len(frames))
	}
}
