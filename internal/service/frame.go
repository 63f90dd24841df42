package service

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

// Frame I/O. Every message is a 4-byte big-endian payload length
// followed by the payload. A frame is encoded into one buffer with its
// header reserved up front and leaves in a single Write; frames are read
// through one fixed buffer per connection and decoded in place.

const frameHeaderSize = 4

// readBufferSize is the per-connection read buffer. A frame that fits
// (a 768-d lookup is ~6 KiB) is decoded straight out of it; a larger one
// is read into a slice of its own. It is fixed, so a server at MaxConns
// holds at most MaxConns × 32 KiB of read buffers.
const readBufferSize = 32 << 10

// maxPooledFrame bounds the frame buffers kept for reuse: a frame that
// grew past it (a large value or batch) is left to the garbage
// collector instead of pinning its memory in the pool.
const maxPooledFrame = 64 << 10

// wireFrame is an outgoing wire frame: header space, then the payload.
type wireFrame struct{ buf []byte }

var framePool = sync.Pool{New: func() any { return new(wireFrame) }}

// newFrame returns a pooled frame with its header reserved and room for
// a payload of size bytes.
func newFrame(size int) *wireFrame {
	f := framePool.Get().(*wireFrame)
	if cap(f.buf) < frameHeaderSize+size {
		f.buf = make([]byte, frameHeaderSize, frameHeaderSize+size)
	} else {
		f.buf = f.buf[:frameHeaderSize]
	}
	return f
}

// release returns the frame to the pool; the caller must not touch it
// afterwards.
func (f *wireFrame) release() {
	if cap(f.buf) <= maxPooledFrame {
		framePool.Put(f)
	}
}

// requestFrame encodes r as one frame. An oversize request is refused
// before anything is encoded or written.
func requestFrame(r *Request) (*wireFrame, error) {
	size := requestSize(r)
	if size > MaxMessageSize {
		return nil, fmt.Errorf("%w: request is %d bytes", ErrMessageTooLarge, size)
	}
	f := newFrame(size)
	e := encoder{buf: f.buf}
	e.request(r)
	f.buf = e.buf
	return f, nil
}

// replyFrame encodes r as one frame, refusing an oversize reply before
// anything is encoded or written.
func replyFrame(r *Reply) (*wireFrame, error) {
	size := replySize(r)
	if size > MaxMessageSize {
		return nil, ErrMessageTooLarge
	}
	f := newFrame(size)
	e := encoder{buf: f.buf}
	e.reply(r)
	f.buf = e.buf
	return f, nil
}

// writeTo fills in the length header and sends the frame in one Write.
func (f *wireFrame) writeTo(w io.Writer) error {
	binary.BigEndian.PutUint32(f.buf, uint32(len(f.buf)-frameHeaderSize))
	_, err := w.Write(f.buf)
	return err
}

// WriteFrame writes a length-prefixed message in one Write.
func WriteFrame(w io.Writer, payload []byte) error {
	if len(payload) > MaxMessageSize {
		return ErrMessageTooLarge
	}
	f := newFrame(len(payload))
	f.buf = append(f.buf, payload...)
	err := f.writeTo(w)
	f.release()
	return err
}

// frameLen validates a frame header and returns its payload length.
func frameLen(hdr []byte) (int, error) {
	n := binary.BigEndian.Uint32(hdr)
	if n > MaxMessageSize {
		return 0, fmt.Errorf("%w: %d bytes", ErrMessageTooLarge, n)
	}
	return int(n), nil
}

// readPayload reads an n-byte payload into a slice of its own.
func readPayload(r io.Reader, n int) ([]byte, error) {
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, midFrame(err)
	}
	return buf, nil
}

// midFrame reports a clean EOF inside a frame as truncation.
func midFrame(err error) error {
	if errors.Is(err, io.EOF) {
		return io.ErrUnexpectedEOF
	}
	return err
}

// ReadFrame reads one length-prefixed message into a fresh slice. It
// never reads past the frame, so it suits an unbuffered stream that is
// read one frame at a time; connections read through a frameReader,
// which shares its header check and its large-frame path.
func ReadFrame(r io.Reader) ([]byte, error) {
	var hdr [frameHeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n, err := frameLen(hdr[:])
	if err != nil {
		return nil, err
	}
	return readPayload(r, n)
}

// frameReader reads the frames of one connection through a fixed
// buffer.
type frameReader struct {
	br *bufio.Reader
	dl *deadlineReader // nil: no read deadlines
}

// newFrameReader reads frames from r with no read deadlines.
func newFrameReader(r io.Reader) *frameReader {
	return &frameReader{br: bufio.NewReaderSize(r, readBufferSize)}
}

// newConnFrameReader reads frames from conn under the server's read
// deadlines: idle bounds the wait for a frame header, body the rest of
// the frame once its header is in (<= 0 = no limit).
func newConnFrameReader(conn net.Conn, idle, body time.Duration) *frameReader {
	dl := &deadlineReader{conn: conn, idle: idle, body: body}
	return &frameReader{br: bufio.NewReaderSize(dl, readBufferSize), dl: dl}
}

// next returns the next frame's payload. A payload that fits the buffer
// is returned in place: it aliases the buffer and is valid only until
// the following call, so the caller decodes it first (DecodeRequest and
// DecodeReply copy every field they return). A larger payload is read
// into a slice of its own.
func (fr *frameReader) next() ([]byte, error) {
	fr.dl.awaitHeader()
	hdr, err := fr.br.Peek(frameHeaderSize)
	if err != nil {
		if len(hdr) > 0 {
			err = midFrame(err)
		}
		return nil, err
	}
	n, err := frameLen(hdr)
	if err != nil {
		return nil, err
	}
	// The header is in: the rest of the frame gets its own (typically
	// tighter) budget, so a peer cannot stretch one request to the idle
	// budget per byte.
	fr.dl.awaitBody()
	if frameHeaderSize+n > fr.br.Size() {
		fr.br.Discard(frameHeaderSize)
		return readPayload(fr.br, n)
	}
	buf, err := fr.br.Peek(frameHeaderSize + n)
	if err != nil {
		return nil, midFrame(err)
	}
	fr.br.Discard(len(buf))
	return buf[frameHeaderSize:], nil
}

// deadlineReader is a connection's read side under the server's read
// deadlines. A deadline is armed only when the buffered reader has to
// call conn.Read, and at most once per phase: the budget of the phase
// counts from its first blocking read, which follows the end of the
// previous request (idle) or the arrival of the header (body) with no
// wait in between, and it stays one absolute deadline however many
// reads the phase takes.
type deadlineReader struct {
	conn       net.Conn
	idle, body time.Duration
	budget     time.Duration // the current phase's; <= 0 = no limit
	armed      bool          // the current phase's deadline is on conn
	limited    bool          // conn carries a non-zero read deadline
}

// awaitHeader and awaitBody start a phase; its deadline is armed by the
// phase's first blocking read.
func (d *deadlineReader) awaitHeader() {
	if d != nil {
		d.budget, d.armed = d.idle, false
	}
}

func (d *deadlineReader) awaitBody() {
	if d != nil {
		d.budget, d.armed = d.body, false
	}
}

func (d *deadlineReader) Read(p []byte) (int, error) {
	if !d.armed {
		d.armed = true
		if d.budget > 0 {
			d.conn.SetReadDeadline(time.Now().Add(d.budget))
			d.limited = true
		} else if d.limited {
			d.conn.SetReadDeadline(time.Time{})
			d.limited = false
		}
	}
	return d.conn.Read(p)
}
