package service

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/vec"
)

// The reference encoder below is the wire format written out one field
// at a time, independent of the sized, in-place encoder, so the golden
// test pins every byte the service emits.

type refEncoder struct{ buf []byte }

func (e *refEncoder) u8(v uint8)   { e.buf = append(e.buf, v) }
func (e *refEncoder) u32(v uint32) { e.buf = binary.BigEndian.AppendUint32(e.buf, v) }
func (e *refEncoder) u64(v uint64) { e.buf = binary.BigEndian.AppendUint64(e.buf, v) }
func (e *refEncoder) f64(v float64) {
	e.u64(math.Float64bits(v))
}
func (e *refEncoder) flag(v bool) {
	if v {
		e.u8(1)
	} else {
		e.u8(0)
	}
}
func (e *refEncoder) str(s string) { e.u32(uint32(len(s))); e.buf = append(e.buf, s...) }
func (e *refEncoder) raw(b []byte) { e.u32(uint32(len(b))); e.buf = append(e.buf, b...) }
func (e *refEncoder) vector(v vec.Vector) {
	e.u32(uint32(len(v)))
	for _, x := range v {
		e.f64(x)
	}
}
func (e *refEncoder) keys(m map[string]vec.Vector) {
	e.u32(uint32(len(m)))
	for _, k := range sortedKeys(m) {
		e.str(k.name)
		e.vector(k.key)
	}
}

func refEncodeRequest(r *Request) []byte {
	var e refEncoder
	e.u8(uint8(r.Type))
	e.str(r.App)
	e.str(r.Function)
	e.str(r.KeyType)
	e.vector(r.Key)
	e.keys(r.Keys)
	e.u32(uint32(len(r.KeyTypes)))
	for _, kt := range r.KeyTypes {
		e.str(kt.Name)
		e.str(kt.Metric)
		e.str(kt.Index)
		e.u32(kt.Dim)
	}
	e.raw(r.Value)
	e.u64(uint64(r.Cost))
	e.u64(uint64(r.Size))
	e.u64(uint64(r.TTL))
	e.u64(r.Trace)
	return e.buf
}

func refEncodeReply(r *Reply) []byte {
	var e refEncoder
	e.u8(uint8(r.Type))
	e.str(r.Error)
	e.flag(r.Hit)
	e.flag(r.Dropout)
	e.raw(r.Value)
	e.f64(r.Distance)
	e.f64(r.Threshold)
	e.u64(uint64(r.MissedAt))
	e.u64(r.ID)
	s := r.Stats
	for _, v := range []int64{s.Hits, s.Misses, s.Dropouts, s.Puts,
		s.Evictions, s.Expirations, s.Entries, s.Bytes, s.SavedComputeN} {
		e.u64(uint64(v))
	}
	e.u64(r.Trace)
	return e.buf
}

// refBatch encodes a batch payload: a count, then each sub-op as a
// length-prefixed encoding.
func refBatch(n int, sub func(i int, e *refEncoder)) []byte {
	var e refEncoder
	e.u32(uint32(n))
	for i := 0; i < n; i++ {
		var se refEncoder
		sub(i, &se)
		e.raw(se.buf)
	}
	return e.buf
}

func refLookupSubs(subs []LookupSub) []byte {
	return refBatch(len(subs), func(i int, e *refEncoder) {
		e.str(subs[i].Function)
		e.str(subs[i].KeyType)
		e.vector(subs[i].Key)
		e.u64(subs[i].Trace)
	})
}

func refLookupSubReplies(subs []LookupSubReply) []byte {
	return refBatch(len(subs), func(i int, e *refEncoder) {
		s := subs[i]
		e.str(s.Error)
		e.flag(s.Hit)
		e.flag(s.Dropout)
		e.raw(s.Value)
		e.f64(s.Distance)
		e.f64(s.Threshold)
		e.u64(uint64(s.MissedAt))
		e.u64(s.Trace)
	})
}

func refPutSubs(subs []PutSub) []byte {
	return refBatch(len(subs), func(i int, e *refEncoder) {
		s := subs[i]
		e.str(s.Function)
		e.keys(s.Keys)
		e.raw(s.Value)
		e.u64(uint64(s.Cost))
		e.u64(uint64(s.Size))
		e.u64(uint64(s.TTL))
		e.u64(s.Trace)
	})
}

func refPutSubReplies(subs []PutSubReply) []byte {
	return refBatch(len(subs), func(i int, e *refEncoder) {
		e.str(subs[i].Error)
		e.u64(subs[i].ID)
		e.u64(subs[i].Trace)
	})
}

// goldenMessages covers every message type, batch frames and the
// trailing trace field included.
func goldenMessages() ([]*Request, []*Reply) {
	key := vec.Vector{1.5, -2.25, math.Inf(1), 0, math.SmallestNonzeroFloat64}
	lsubs := []LookupSub{{Function: "f", KeyType: "k", Key: key, Trace: 9}, {Function: "g", KeyType: "", Key: nil}}
	psubs := []PutSub{
		{Function: "f", Keys: map[string]vec.Vector{"b": {3}, "a": key}, Value: []byte("val"), Cost: 5, Size: -1, TTL: 7, Trace: 11},
		{Function: "g"},
	}
	reqs := []*Request{
		{Type: MsgRegister, App: "lens", Function: "recognize",
			KeyTypes: []KeyTypeDef{{Name: "a", Metric: "euclidean", Index: "kdtree", Dim: 4}, {Name: "b"}}},
		{Type: MsgLookup, App: "lens", Function: "recognize", KeyType: "kt", Key: key, Trace: 0xdeadbeefcafe},
		{Type: MsgLookup, Function: "f", KeyType: "downsamp", Key: make(vec.Vector, 768)},
		{Type: MsgPut, App: "lens", Function: "recognize", Keys: map[string]vec.Vector{"z": key, "a": {1}, "m": nil},
			Value: []byte("result"), Cost: 123456789, Size: 42, TTL: -3, Trace: 1},
		{Type: MsgStats},
		{Type: MsgMultiLookup, App: "a", Value: EncodeLookupSubs(lsubs), Trace: 2},
		{Type: MsgMultiPut, App: "a", Value: EncodePutSubs(psubs)},
		{Type: MsgPeerInfo, App: PeerAppPrefix + "n1", Value: EncodePeerInfo(&PeerInfo{Version: 1, NodeID: "n1", Replicas: 2})},
		{Type: 99},
	}
	replies := []*Reply{
		{Type: MsgReplyOK},
		{Type: MsgReplyError, Error: "boom", Trace: 4},
		{Type: MsgReplyLookup, Hit: true, Value: []byte("v"), Distance: 0.25, Threshold: 1.5, MissedAt: -7, Trace: 0xfeed},
		{Type: MsgReplyLookup, Dropout: true, Distance: -1},
		{Type: MsgReplyPut, ID: 77, Trace: 3},
		{Type: MsgReplyStats, Stats: StatsPayload{1, 2, 3, 4, 5, 6, 7, 8, 9}},
		{Type: MsgReplyMultiLookup, Value: EncodeLookupSubReplies([]LookupSubReply{
			{Hit: true, Value: []byte("x"), Distance: 0.5, Threshold: 1, MissedAt: 3, Trace: 8}, {Error: "nope"}})},
		{Type: MsgReplyMultiPut, Value: EncodePutSubReplies([]PutSubReply{{ID: 1, Trace: 2}, {Error: "e"}})},
		{Type: MsgReplyPeerInfo, Value: EncodePeerInfo(&PeerInfo{Version: 1, NodeID: "n2"})},
	}
	return reqs, replies
}

// TestGoldenWireBytes: the sized, single-write frame writer emits
// exactly the reference bytes, header included, for every message type.
func TestGoldenWireBytes(t *testing.T) {
	reqs, replies := goldenMessages()
	check := func(what string, payload, want []byte, size int, f *wireFrame) {
		t.Helper()
		if !bytes.Equal(payload, want) {
			t.Fatalf("%s: payload differs from the reference encoding\n got %x\nwant %x", what, payload, want)
		}
		if size != len(want) {
			t.Fatalf("%s: computed size %d, encoded %d", what, size, len(want))
		}
		var out, viaWriteFrame bytes.Buffer
		if err := f.writeTo(&out); err != nil {
			t.Fatal(err)
		}
		f.release()
		if err := WriteFrame(&viaWriteFrame, payload); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.Bytes(), frame(want)) || !bytes.Equal(viaWriteFrame.Bytes(), frame(want)) {
			t.Fatalf("%s: frame bytes differ from header + reference payload", what)
		}
	}
	for _, r := range reqs {
		f, err := requestFrame(r)
		if err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprint("request type ", r.Type), EncodeRequest(r), refEncodeRequest(r), requestSize(r), f)
	}
	for _, r := range replies {
		f, err := replyFrame(r)
		if err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprint("reply type ", r.Type), EncodeReply(r), refEncodeReply(r), replySize(r), f)
	}

	// Two frames written out byte for byte, as the single-op protocol
	// first shipped them (trailing trace field included).
	for _, c := range []struct {
		f    func() (*wireFrame, error)
		want string
	}{
		{func() (*wireFrame, error) {
			return requestFrame(&Request{Type: MsgLookup, App: "a", Function: "f", KeyType: "k", Key: vec.Vector{1, -0.5}, Trace: 2})
		}, "00000050" + "02" + "0000000161" + "0000000166" + "000000016b" + "00000002" + "3ff0000000000000" + "bfe0000000000000" +
			"00000000" + "00000000" + "00000000" + strings.Repeat("0", 48) + "0000000000000002"},
		{func() (*wireFrame, error) {
			return replyFrame(&Reply{Type: MsgReplyLookup, Hit: true, Value: []byte("v"), Distance: 0.25, Threshold: 1.5, MissedAt: 3, Trace: 4})
		}, "0000007c" + "07" + "00000000" + "01" + "00" + "0000000176" + "3fd0000000000000" + "3ff8000000000000" +
			"0000000000000003" + "0000000000000000" + strings.Repeat("0", 9*16) + "0000000000000004"},
	} {
		f, err := c.f()
		if err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		f.writeTo(&out)
		f.release()
		if got := hex.EncodeToString(out.Bytes()); got != c.want {
			t.Fatalf("frame bytes\n got %s\nwant %s", got, c.want)
		}
	}

	lsubs := []LookupSub{{Function: "f", KeyType: "k", Key: vec.Vector{1, 2}, Trace: 9}, {}}
	lreps := []LookupSubReply{{Hit: true, Value: []byte("x"), Distance: 0.5, Trace: 8}, {Error: "nope"}}
	psubs := []PutSub{{Function: "f", Keys: map[string]vec.Vector{"b": {3}, "a": {1}}, Value: []byte("v"), Cost: 5, Trace: 11}, {}}
	preps := []PutSubReply{{ID: 1, Trace: 2}, {Error: "e"}}
	for _, c := range []struct {
		name      string
		got, want []byte
	}{
		{"lookup subs", EncodeLookupSubs(lsubs), refLookupSubs(lsubs)},
		{"lookup sub replies", EncodeLookupSubReplies(lreps), refLookupSubReplies(lreps)},
		{"put subs", EncodePutSubs(psubs), refPutSubs(psubs)},
		{"put sub replies", EncodePutSubReplies(preps), refPutSubReplies(preps)},
		{"empty put subs", EncodePutSubs(nil), refPutSubs(nil)},
	} {
		if !bytes.Equal(c.got, c.want) {
			t.Fatalf("%s: batch payload differs from the reference encoding", c.name)
		}
	}
}

// TestDecodedFramesDoNotAliasReadBuffer: a frame is decoded straight out
// of the read buffer, so everything decoded must survive the buffer
// being overwritten.
func TestDecodedFramesDoNotAliasReadBuffer(t *testing.T) {
	reqs, replies := goldenMessages()
	var stream bytes.Buffer
	for _, r := range reqs {
		WriteFrame(&stream, EncodeRequest(r))
	}
	for _, r := range replies {
		WriteFrame(&stream, EncodeReply(r))
	}
	fr := newFrameReader(&stream)
	overwrite := func(p []byte) {
		for i := range p {
			p[i] = 0xA5
		}
	}
	for _, want := range reqs {
		p, err := fr.next()
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodeRequest(p)
		if err != nil {
			t.Fatal(err)
		}
		overwrite(p)
		wantDecoded, _ := DecodeRequest(EncodeRequest(want))
		if !reflect.DeepEqual(got, wantDecoded) {
			t.Fatalf("request type %d changed with the read buffer:\n got %+v\nwant %+v", want.Type, got, wantDecoded)
		}
	}
	for _, want := range replies {
		p, err := fr.next()
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodeReply(p)
		if err != nil {
			t.Fatal(err)
		}
		overwrite(p)
		wantDecoded, _ := DecodeReply(EncodeReply(want))
		if !reflect.DeepEqual(got, wantDecoded) {
			t.Fatalf("reply type %d changed with the read buffer:\n got %+v\nwant %+v", want.Type, got, wantDecoded)
		}
	}
	if _, err := fr.next(); err != io.EOF {
		t.Fatalf("after the last frame: %v, want io.EOF", err)
	}
}

// TestBackToBackFramesAnsweredInOrder: three requests delivered in one
// write land in one buffered read and are all answered, in order.
func TestBackToBackFramesAnsweredInOrder(t *testing.T) {
	_, sock := startServerCfg(t, testConfig(), ServerConfig{})
	conn, err := net.Dial("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var burst []byte
	for _, r := range []*Request{
		{Type: MsgRegister, Function: "f", KeyTypes: []KeyTypeDef{{Name: "k"}}, Trace: 1},
		{Type: 99, Trace: 2},
		{Type: MsgLookup, Function: "f", KeyType: "k", Key: vec.Vector{1}, Trace: 3},
	} {
		burst = append(burst, frame(EncodeRequest(r))...)
	}
	if _, err := conn.Write(burst); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	for i, want := range []MsgType{MsgReplyOK, MsgReplyError, MsgReplyLookup} {
		payload, err := ReadFrame(conn)
		if err != nil {
			t.Fatalf("reply %d: %v", i, err)
		}
		reply, err := DecodeReply(payload)
		if err != nil || reply.Type != want {
			t.Fatalf("reply %d = %+v, %v; want type %d", i, reply, err, want)
		}
	}
}

// TestLargeFrameRoundTrip: a frame bigger than the read buffer takes
// the exact-size path in both directions.
func TestLargeFrameRoundTrip(t *testing.T) {
	_, sock := startServerCfg(t, testConfig(), ServerConfig{})
	cl, err := Dial("unix", sock, "app")
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Register("f", KeyTypeDef{Name: "k"}); err != nil {
		t.Fatal(err)
	}
	big := make([]byte, 1<<20)
	for i := range big {
		big[i] = byte(i * 7)
	}
	key := vec.Vector{4, 2}
	if _, err := cl.Put("f", map[string]vec.Vector{"k": key}, big, PutOptions{}); err != nil {
		t.Fatal(err)
	}
	// Small frames keep flowing around the large ones.
	if _, err := cl.Stats(); err != nil {
		t.Fatal(err)
	}
	res, err := cl.Lookup("f", "k", key)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Hit || !bytes.Equal(res.Value, big) {
		t.Fatalf("large value did not round-trip: hit=%v len=%d", res.Hit, len(res.Value))
	}
}

// TestTrickledBodyCutAfterReadTimeout: ReadTimeout is one budget from
// the header's arrival, not a budget per read, so a body trickled one
// byte per 30 ms is cut about 100 ms after its header.
func TestTrickledBodyCutAfterReadTimeout(t *testing.T) {
	_, sock := startServerCfg(t, testConfig(), ServerConfig{ReadTimeout: 100 * time.Millisecond})
	conn, err := net.Dial("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], 100)
	start := time.Now()
	if _, err := conn.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(30 * time.Millisecond)
		defer tick.Stop()
		for i := 0; i < 100; i++ {
			select {
			case <-stop:
				return
			case <-tick.C:
			}
			if _, err := conn.Write([]byte{0}); err != nil {
				return
			}
		}
	}()
	conn.SetReadDeadline(time.Now().Add(3 * time.Second))
	_, err = conn.Read(make([]byte, 1))
	cut := time.Since(start)
	close(stop)
	wg.Wait()
	if err == nil {
		t.Fatal("server replied to a trickled frame")
	}
	if errDeadline(err) != nil {
		t.Fatalf("server did not cut the trickled body: %v", err)
	}
	if cut < 90*time.Millisecond || cut > time.Second {
		t.Fatalf("trickled body cut %v after its header, want about 100ms", cut)
	}
}

// deadlineCountingConn counts the deadlines a server arms on its side
// of a connection.
type deadlineCountingConn struct {
	net.Conn
	mu                   sync.Mutex
	readSets, writeSets  int
	readClears, wrClears int
}

func (c *deadlineCountingConn) SetReadDeadline(t time.Time) error {
	c.mu.Lock()
	if t.IsZero() {
		c.readClears++
	} else {
		c.readSets++
	}
	c.mu.Unlock()
	return c.Conn.SetReadDeadline(t)
}

func (c *deadlineCountingConn) SetWriteDeadline(t time.Time) error {
	c.mu.Lock()
	if t.IsZero() {
		c.wrClears++
	} else {
		c.writeSets++
	}
	c.mu.Unlock()
	return c.Conn.SetWriteDeadline(t)
}

// TestDeadlinesArmedOnlyWhenReadBlocks: a sequential client costs the
// server one read deadline per request (its header wait) and one write
// deadline per reply, and nothing is ever cleared.
func TestDeadlinesArmedOnlyWhenReadBlocks(t *testing.T) {
	srv := NewServerConfig(core.New(testConfig()), ServerConfig{})
	cconn, sconn := net.Pipe()
	counted := &deadlineCountingConn{Conn: sconn}
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.handleConn(counted, &connState{})
	}()
	cl := NewClientConn(cconn, "app")
	const n = 20
	for i := 0; i < n; i++ {
		if _, err := cl.Stats(); err != nil {
			t.Fatal(err)
		}
	}
	cl.Close()
	<-done
	counted.mu.Lock()
	defer counted.mu.Unlock()
	if counted.readSets > n+1 || counted.writeSets != n || counted.readClears+counted.wrClears != 0 {
		t.Fatalf("%d requests armed %d read and %d write deadlines and cleared %d/%d; want <= %d, %d, 0/0",
			n, counted.readSets, counted.writeSets, counted.readClears, counted.wrClears, n+1, n)
	}
}

// chunkReader delivers at most size bytes per Read.
type chunkReader struct {
	r    io.Reader
	size int
}

func (c *chunkReader) Read(p []byte) (int, error) {
	if len(p) > c.size {
		p = p[:c.size]
	}
	return c.r.Read(p)
}

// readAllFrames reads frames until the first error, returning the
// payloads (copied) and that error.
func readAllFrames(next func() ([]byte, error)) ([][]byte, error) {
	var out [][]byte
	for {
		p, err := next()
		if err != nil {
			return out, err
		}
		out = append(out, append([]byte(nil), p...))
	}
}

// sameFrames checks that the buffered reader yields ReadFrame's frames
// and fails where it fails, in the same way.
func sameFrames(t *testing.T, data []byte, chunk int) {
	t.Helper()
	// ReadFrame is unbuffered: it reads frame after frame from one reader.
	r := bytes.NewReader(data)
	want, wantErr := readAllFrames(func() ([]byte, error) { return ReadFrame(r) })
	fr := newFrameReader(&chunkReader{r: bytes.NewReader(data), size: chunk})
	got, gotErr := readAllFrames(fr.next)
	if len(got) != len(want) {
		t.Fatalf("chunk %d: buffered reader read %d frames, ReadFrame %d", chunk, len(got), len(want))
	}
	for i := range got {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("chunk %d: frame %d differs", chunk, i)
		}
		if len(got[i]) > MaxMessageSize {
			t.Fatalf("oversized payload accepted: %d", len(got[i]))
		}
	}
	if errors.Is(gotErr, ErrMessageTooLarge) != errors.Is(wantErr, ErrMessageTooLarge) ||
		(gotErr == io.EOF) != (wantErr == io.EOF) {
		t.Fatalf("chunk %d: buffered reader stopped with %v, ReadFrame with %v", chunk, gotErr, wantErr)
	}
}

// BenchmarkCodecDownsampleRequest times encoding and decoding the 768-d
// Downsample lookup request that single-op lookups of video frames send.
func BenchmarkCodecDownsampleRequest(b *testing.B) {
	key := make(vec.Vector, 768)
	for i := range key {
		key[i] = float64(i) / 768
	}
	req := &Request{Type: MsgLookup, App: "app-0", Function: "hot", KeyType: "downsamp", Key: key, Trace: 42}
	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			f, err := requestFrame(req)
			if err != nil {
				b.Fatal(err)
			}
			f.release()
		}
	})
	b.Run("decode", func(b *testing.B) {
		payload := EncodeRequest(req)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := DecodeRequest(payload); err != nil {
				b.Fatal(err)
			}
		}
	})
}
