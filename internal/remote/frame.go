package remote

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"

	"repro/internal/core"
	"repro/internal/punct"
	"repro/internal/snapshot"
	"repro/internal/stream"
)

// Wire format of one remote edge (DESIGN.md "Remote edge wire format").
// Each direction of the connection opens with wireMagic followed by the
// wireVersion byte, then carries frames:
//
//	frame    = kind:byte length:uvarint payload:[length]byte
//	run      = count:uvarint { seq:varint arity:uvarint value* }
//	punct    = pattern (punct.Pattern.AppendBinary)
//	barrier  = epoch:varint mode:byte
//	feedback = intent:byte hops:varint seq:varint origin:uvarint+bytes pattern
//	eos      = (empty)
//
// Values use the shared stream.Value.AppendBinary codec, patterns the
// shared punct codec, so the edge adds framing and nothing else.

// wireMagic opens each direction; a peer speaking anything else (another
// protocol, an older edge) fails with a clean error instead of a misparse.
const wireMagic = "paedge"

// wireVersion follows the magic. Only this version is accepted.
const wireVersion = 1

// maxFrameLen bounds one frame's payload. The reader rejects a longer
// length before reading any of it; the writer starts a new run frame rather
// than exceed it, and fails on a single tuple that would.
const maxFrameLen = 1 << 24

// frame kinds. Zero is unused, so a zeroed stream is not a valid frame.
const (
	frameRun byte = iota + 1
	framePunct
	frameEOS
	frameFeedback
	// frameBarrier carries a checkpoint barrier in-band on the data path.
	// It must not be reordered past tuples — the cut's position on the
	// wire is the cut.
	frameBarrier
)

// frameWriter builds the frames of one direction in memory; flush hands
// everything built since the last flush to the connection in one write.
type frameWriter struct {
	buf    []byte // complete frames (after construction, the magic first)
	frames int    // complete frames in buf
	run    []byte // open run frame: its tuples, without the count
	runN   int    // tuples in the open run
	tmp    []byte // scratch payload for single frames
}

func newFrameWriter() *frameWriter {
	return &frameWriter{buf: append([]byte(wireMagic), wireVersion)}
}

// tuple appends t to the open run frame. If t would push the run past
// maxFrameLen, the run is closed first and t opens the next one.
func (w *frameWriter) tuple(t stream.Tuple) error {
	start := len(w.run)
	w.run = binary.AppendVarint(w.run, t.Seq)
	w.run = binary.AppendUvarint(w.run, uint64(len(t.Values)))
	for _, v := range t.Values {
		w.run = v.AppendBinary(w.run)
	}
	w.runN++
	if len(w.run)+binary.MaxVarintLen64 <= maxFrameLen {
		return nil
	}
	last := append([]byte(nil), w.run[start:]...)
	w.run, w.runN = w.run[:start], w.runN-1
	w.closeRun()
	if len(last)+binary.MaxVarintLen64 > maxFrameLen {
		return fmt.Errorf("remote: tuple of %d bytes exceeds the %d-byte frame bound", len(last), maxFrameLen)
	}
	w.run, w.runN = append(w.run, last...), 1
	return nil
}

// closeRun turns the open run, if any, into a complete frame.
func (w *frameWriter) closeRun() {
	if w.runN == 0 {
		return
	}
	n := uint64(w.runN)
	w.buf = append(w.buf, frameRun)
	w.buf = binary.AppendUvarint(w.buf, uint64(uvarintLen(n)+len(w.run)))
	w.buf = binary.AppendUvarint(w.buf, n)
	w.buf = append(w.buf, w.run...)
	w.frames++
	w.run, w.runN = w.run[:0], 0
}

func uvarintLen(x uint64) int {
	n := 1
	for ; x >= 0x80; x >>= 7 {
		n++
	}
	return n
}

// frame closes the open run, then appends one frame carrying payload.
func (w *frameWriter) frame(kind byte, payload []byte) {
	w.closeRun()
	w.buf = append(w.buf, kind)
	w.buf = binary.AppendUvarint(w.buf, uint64(len(payload)))
	w.buf = append(w.buf, payload...)
	w.frames++
}

func (w *frameWriter) punct(p punct.Pattern) {
	w.tmp = p.AppendBinary(w.tmp[:0])
	w.frame(framePunct, w.tmp)
}

func (w *frameWriter) barrier(epoch int64, mode snapshot.CaptureMode) {
	w.tmp = binary.AppendVarint(w.tmp[:0], epoch)
	w.tmp = append(w.tmp, byte(mode))
	w.frame(frameBarrier, w.tmp)
}

func (w *frameWriter) feedback(f core.Feedback) {
	b := append(w.tmp[:0], byte(f.Intent))
	b = binary.AppendVarint(b, int64(f.Hops))
	b = binary.AppendVarint(b, f.Seq)
	b = binary.AppendUvarint(b, uint64(len(f.Origin)))
	b = append(b, f.Origin...)
	w.tmp = f.Pattern.AppendBinary(b)
	w.frame(frameFeedback, w.tmp)
}

func (w *frameWriter) eos() { w.frame(frameEOS, nil) }

// flush closes the open run and writes every complete frame to dst,
// reporting how many frames and bytes went out.
func (w *frameWriter) flush(dst io.Writer) (frames, n int, err error) {
	w.closeRun()
	frames = w.frames
	n, err = dst.Write(w.buf)
	w.buf, w.frames = w.buf[:0], 0
	return frames, n, err
}

// frameReader parses one direction of the wire. I/O errors come back
// unwrapped (io.EOF only at a frame boundary), so callers can tell a
// closed or timed-out connection from a malformed stream.
type frameReader struct {
	r       *bufio.Reader
	payload []byte // reused across frames
	opened  bool   // magic and version checked
}

func newFrameReader(r io.Reader) *frameReader {
	return &frameReader{r: bufio.NewReader(r)}
}

// next reads one frame. The payload is valid until the following call.
func (fr *frameReader) next() (kind byte, payload []byte, err error) {
	if !fr.opened {
		var head [len(wireMagic) + 1]byte
		if _, err := io.ReadFull(fr.r, head[:]); err != nil {
			return 0, nil, err
		}
		if string(head[:len(wireMagic)]) != wireMagic {
			return 0, nil, fmt.Errorf("remote: peer is not a remote edge (stream opens with %q, want %q)", head[:len(wireMagic)], wireMagic)
		}
		if head[len(wireMagic)] != wireVersion {
			return 0, nil, fmt.Errorf("remote: peer speaks wire version %d, want %d", head[len(wireMagic)], wireVersion)
		}
		fr.opened = true
	}
	if kind, err = fr.r.ReadByte(); err != nil {
		return 0, nil, err
	}
	n, err := binary.ReadUvarint(fr.r)
	if err != nil {
		return 0, nil, fmt.Errorf("remote: frame length: %w", eofTruncated(err))
	}
	if n > maxFrameLen {
		return 0, nil, fmt.Errorf("remote: frame length %d exceeds the %d-byte bound", n, maxFrameLen)
	}
	if payload, err = fr.read(int(n)); err != nil {
		return 0, nil, fmt.Errorf("remote: frame payload: %w", eofTruncated(err))
	}
	return kind, payload, nil
}

// read reads exactly n payload bytes. Past the reused buffer's capacity it
// grows only as bytes arrive, so a corrupt length on a short stream costs
// about what was actually sent, not the claimed length.
func (fr *frameReader) read(n int) ([]byte, error) {
	p := fr.payload[:0]
	for len(p) < n {
		step := min(n-len(p), max(cap(p)-len(p), len(p), 4096))
		p = slices.Grow(p, step)
		m, err := io.ReadFull(fr.r, p[len(p):len(p)+step])
		p = p[:len(p)+m]
		if err != nil {
			return nil, err
		}
	}
	fr.payload = p
	return p, nil
}

// eofTruncated maps an EOF inside a frame to io.ErrUnexpectedEOF: only a
// frame boundary may end the stream.
func eofTruncated(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// decodeRun decodes a run frame's payload into ts (reused, returned
// resliced). All tuples share one value slab, allocated once per run.
func decodeRun(payload []byte, arity int, ts []stream.Tuple) ([]stream.Tuple, error) {
	count, k := binary.Uvarint(payload)
	if k <= 0 {
		return nil, errors.New("remote: run frame: bad tuple count")
	}
	b := payload[k:]
	// Every tuple spends at least a byte each on seq, arity and each value,
	// so a count the payload cannot hold is corrupt; checking it first
	// bounds the slab by the payload length.
	if count == 0 || count > uint64(len(b)/(2+arity)) {
		return nil, fmt.Errorf("remote: run frame: %d tuples cannot fit in %d bytes", count, len(b))
	}
	slab := make([]stream.Value, int(count)*arity)
	ts = ts[:0]
	for i := 0; i < int(count); i++ {
		seq, n := binary.Varint(b)
		if n <= 0 {
			return nil, fmt.Errorf("remote: run frame: tuple %d: bad seq", i)
		}
		b = b[n:]
		a, n := binary.Uvarint(b)
		if n <= 0 || a != uint64(arity) {
			return nil, fmt.Errorf("remote: run frame: tuple %d: arity %d, schema wants %d", i, a, arity)
		}
		b = b[n:]
		vals := slab[i*arity : (i+1)*arity : (i+1)*arity]
		for j := range vals {
			v, rest, err := stream.DecodeValue(b)
			if err != nil {
				return nil, fmt.Errorf("remote: run frame: tuple %d: %w", i, err)
			}
			vals[j], b = v, rest
		}
		ts = append(ts, stream.Tuple{Values: vals, Seq: seq})
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("remote: run frame: %d trailing bytes", len(b))
	}
	return ts, nil
}

func decodePattern(raw []byte) (punct.Pattern, error) {
	var p punct.Pattern
	if err := p.UnmarshalBinary(raw); err != nil {
		return punct.Pattern{}, err
	}
	return p, nil
}

func decodeBarrier(payload []byte) (int64, snapshot.CaptureMode, error) {
	epoch, n := binary.Varint(payload)
	if n <= 0 || len(payload) != n+1 {
		return 0, 0, errors.New("remote: malformed barrier frame")
	}
	mode := snapshot.CaptureMode(payload[n])
	if mode != snapshot.CaptureFull && mode != snapshot.CaptureDelta {
		return 0, 0, fmt.Errorf("remote: barrier epoch %d carries unknown capture mode %d", epoch, payload[n])
	}
	return epoch, mode, nil
}

func decodeFeedback(payload []byte) (core.Feedback, error) {
	bad := errors.New("remote: malformed feedback frame")
	if len(payload) == 0 {
		return core.Feedback{}, bad
	}
	f := core.Feedback{Intent: core.Intent(payload[0])}
	b := payload[1:]
	hops, n := binary.Varint(b)
	if n <= 0 {
		return core.Feedback{}, bad
	}
	b = b[n:]
	if f.Seq, n = binary.Varint(b); n <= 0 {
		return core.Feedback{}, bad
	}
	b = b[n:]
	l, n := binary.Uvarint(b)
	if n <= 0 || uint64(len(b)-n) < l {
		return core.Feedback{}, bad
	}
	f.Hops, f.Origin = int(hops), string(b[n:n+int(l)])
	pat, err := decodePattern(b[n+int(l):])
	if err != nil {
		return core.Feedback{}, fmt.Errorf("remote: decode feedback pattern: %w", err)
	}
	f.Pattern = pat
	return f, nil
}
