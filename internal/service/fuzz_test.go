package service

import (
	"bytes"
	"encoding/binary"
	"io"
	"net"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/vec"
)

// FuzzDecodeRequest hardens the wire decoder against arbitrary bytes:
// it must never panic, and anything it accepts must re-encode and
// re-decode to the same structure (decode∘encode idempotence).
func FuzzDecodeRequest(f *testing.F) {
	f.Add(EncodeRequest(&Request{Type: MsgLookup, Function: "f", KeyType: "k", Key: vec.Vector{1, 2}}))
	f.Add(EncodeRequest(&Request{
		Type: MsgPut, App: "a", Function: "f",
		Keys:  map[string]vec.Vector{"x": {3}},
		Value: []byte("v"), Cost: 5, TTL: 7,
	}))
	f.Add(EncodeRequest(&Request{
		Type:     MsgRegister,
		Function: "f",
		KeyTypes: []KeyTypeDef{{Name: "k", Metric: "euclidean", Index: "kdtree", Dim: 2}},
	}))
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	// Error-path seeds: unknown message type, zero-length vectors.
	f.Add(EncodeRequest(&Request{Type: 99, Function: "f"}))
	f.Add(EncodeRequest(&Request{Type: MsgLookup, Function: "f", KeyType: "k", Key: vec.Vector{}}))
	f.Add(EncodeRequest(&Request{Type: MsgPut, Function: "f", Keys: map[string]vec.Vector{"k": {}}}))
	// Boundary-length seeds: field lengths near MaxUint32 must be
	// rejected by the uint64 comparisons, not wrapped on 32-bit ints.
	f.Add(hostileLengthFrame(0xFFFFFFFF)) // string length = MaxUint32
	f.Add(hostileLengthFrame(0x80000000)) // length = MinInt32 as uint
	f.Add(hostileLengthFrame(0x7FFFFFFF)) // length = MaxInt32
	f.Add(hostileVectorFrame(0x20000001)) // 8*n overflows int32
	f.Add(hostileVectorFrame(0xFFFFFFFF))
	f.Add(hostileMapCountFrame(0xFFFFFFFF))
	// Batch envelopes ride through DecodeRequest as opaque Value bytes;
	// seed one so the fuzzer explores the envelope path too.
	f.Add(EncodeRequest(&Request{
		Type: MsgMultiLookup, App: "a",
		Value: EncodeLookupSubs([]LookupSub{{Function: "f", KeyType: "k", Key: vec.Vector{1}}}),
	}))
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := DecodeRequest(data)
		if err != nil {
			return
		}
		re := EncodeRequest(req)
		req2, err := DecodeRequest(re)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if !bytes.Equal(EncodeRequest(req2), re) {
			t.Fatal("encode not stable across round trips")
		}
	})
}

// FuzzDecodeReply mirrors FuzzDecodeRequest for the reply direction.
func FuzzDecodeReply(f *testing.F) {
	f.Add(EncodeReply(&Reply{Type: MsgReplyLookup, Hit: true, Value: []byte("v"), Distance: 1.5}))
	f.Add(EncodeReply(&Reply{Type: MsgReplyError, Error: "boom"}))
	f.Add([]byte{1})
	f.Fuzz(func(t *testing.T, data []byte) {
		reply, err := DecodeReply(data)
		if err != nil {
			return
		}
		re := EncodeReply(reply)
		if _, err := DecodeReply(re); err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
	})
}

// FuzzReadFrame checks the framing layer against hostile prefixes, and
// checks that the buffered connection reader yields the same frames as
// ReadFrame, and stops the same way, however the bytes arrive.
func FuzzReadFrame(f *testing.F) {
	var good bytes.Buffer
	WriteFrame(&good, []byte("payload"))
	f.Add(good.Bytes())
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 1, 2, 3})
	// Streams of frames: every message type back to back, then after a
	// frame larger than the read buffer, and cut short.
	reqs, _ := goldenMessages()
	var stream []byte
	for _, r := range reqs {
		stream = append(stream, frame(EncodeRequest(r))...)
	}
	large := frame(make([]byte, readBufferSize+10))
	f.Add(stream)
	f.Add(append(append([]byte(nil), stream...), large...))
	f.Add(append(append([]byte(nil), large...), stream[:len(stream)-3]...))
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, chunk := range []int{1, 7, readBufferSize} {
			sameFrames(t, data, chunk)
		}
		payload, err := ReadFrame(bytes.NewReader(data))
		if err != nil {
			return
		}
		if len(payload) > MaxMessageSize {
			t.Fatalf("oversized payload accepted: %d", len(payload))
		}
	})
}

// hostileLengthFrame builds a request payload whose App-string length
// field is the given value with almost no bytes behind it.
func hostileLengthFrame(n uint32) []byte {
	buf := []byte{byte(MsgLookup)}
	buf = binary.BigEndian.AppendUint32(buf, n)
	return append(buf, 'x')
}

// hostileVectorFrame builds a request payload whose Key vector length
// field is the given value (App/Function/KeyType empty).
func hostileVectorFrame(n uint32) []byte {
	buf := []byte{byte(MsgLookup)}
	for i := 0; i < 3; i++ { // empty App, Function, KeyType
		buf = binary.BigEndian.AppendUint32(buf, 0)
	}
	buf = binary.BigEndian.AppendUint32(buf, n)
	return append(buf, 1, 2, 3, 4, 5, 6, 7, 8)
}

// hostileMapCountFrame builds a request payload whose Keys map count is
// the given value.
func hostileMapCountFrame(n uint32) []byte {
	buf := []byte{byte(MsgPut)}
	for i := 0; i < 4; i++ { // empty App, Function, KeyType, Key
		buf = binary.BigEndian.AppendUint32(buf, 0)
	}
	buf = binary.BigEndian.AppendUint32(buf, n)
	return append(buf, 0, 0, 0, 0)
}

// frame prefixes a payload with its length header, bypassing WriteFrame's
// size check so hostile prefixes can be synthesized.
func frame(payload []byte) []byte {
	out := make([]byte, 4+len(payload))
	binary.BigEndian.PutUint32(out, uint32(len(payload)))
	copy(out[4:], payload)
	return out
}

// FuzzServerStream drives a live connection handler with arbitrary bytes:
// whatever arrives — truncated frames, oversize prefixes, unknown message
// types, zero-length vectors, garbage — the handler must neither panic
// nor hang, and every reply it does emit must decode.
func FuzzServerStream(f *testing.F) {
	f.Add(frame(EncodeRequest(&Request{
		Type: MsgRegister, Function: "f",
		KeyTypes: []KeyTypeDef{{Name: "k"}},
	})))
	f.Add(frame(EncodeRequest(&Request{Type: MsgStats})))
	f.Add(frame(EncodeRequest(&Request{Type: 99})))                                               // unknown type
	f.Add(frame(EncodeRequest(&Request{Type: MsgLookup, Function: "f", Key: vec.Vector{}})))      // zero-length vector
	f.Add(frame(EncodeRequest(&Request{Type: MsgLookup, Function: "f", Key: vec.Vector{1}}))[:7]) // truncated frame
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 1, 2, 3})                                                // oversize length prefix
	f.Add([]byte{0, 0, 0})                                                                        // short header
	f.Fuzz(func(t *testing.T, data []byte) {
		// All at once, then in 3-byte writes so frames straddle the
		// buffered reader's fills.
		serveStream(t, data, len(data))
		serveStream(t, data, 3)
	})
}

// serveStream runs one connection handler over data, written in writes
// of at most chunk bytes.
func serveStream(t *testing.T, data []byte, chunk int) {
	srv := NewServerConfig(core.New(core.Config{DisableDropout: true}), ServerConfig{
		IdleTimeout: 200 * time.Millisecond,
		ReadTimeout: 200 * time.Millisecond,
	})
	client, server := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.handleConn(server, &connState{})
	}()
	// Drain replies concurrently (net.Pipe is unbuffered, so an
	// unread reply would wedge the handler) and check each decodes.
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		for {
			payload, err := ReadFrame(client)
			if err != nil {
				return
			}
			if _, err := DecodeReply(payload); err != nil {
				t.Errorf("server emitted undecodable reply: %v", err)
			}
		}
	}()
	for rest := data; len(rest) > 0; {
		n := min(chunk, len(rest))
		if _, err := client.Write(rest[:n]); err != nil {
			break // the handler hung up
		}
		rest = rest[n:]
	}
	client.Close()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("connection handler hung on hostile input")
	}
	<-drained
}

// FuzzClientReply drives the client's reply path with arbitrary bytes
// standing in for the server: the round trip must fail cleanly or
// succeed, never panic or hang, and an undecodable reply must poison the
// connection.
func FuzzClientReply(f *testing.F) {
	f.Add(frame(EncodeReply(&Reply{Type: MsgReplyLookup, Hit: true, Value: []byte("v")})))
	f.Add(frame(EncodeReply(&Reply{Type: MsgReplyError, Error: "boom"})))
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	f.Add([]byte{0, 0, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		cconn, sconn := net.Pipe()
		cl := NewClientConn(cconn, "fuzz")
		cl.cfg.RequestTimeout = 500 * time.Millisecond
		go func() {
			// Absorb the request, answer with the fuzzed bytes, hang up.
			io.ReadFull(sconn, make([]byte, 4))
			sconn.Write(data)
			sconn.Close()
		}()
		done := make(chan struct{})
		go func() {
			defer close(done)
			cl.Lookup("f", "k", vec.Vector{1})
		}()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatal("client round trip hung on hostile reply")
		}
		cl.Close()
	})
}
