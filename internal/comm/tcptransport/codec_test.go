package tcptransport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"net"
	"os"
	"testing"
	"time"

	"repro/internal/comm"
)

func frameEqual(a, b *comm.Frame) bool {
	if a.Ctx != b.Ctx || a.Src != b.Src || a.Dst != b.Dst || a.Tag != b.Tag ||
		a.CRC != b.CRC || a.Framed != b.Framed ||
		math.Float64bits(a.SendVT) != math.Float64bits(b.SendVT) ||
		math.Float64bits(a.Arrival) != math.Float64bits(b.Arrival) ||
		len(a.Data) != len(b.Data) || len(a.Ints) != len(b.Ints) {
		return false
	}
	for i := range a.Data {
		if math.Float64bits(a.Data[i]) != math.Float64bits(b.Data[i]) {
			return false
		}
	}
	for i := range a.Ints {
		if a.Ints[i] != b.Ints[i] {
			return false
		}
	}
	return true
}

// cloneFrame deep-copies a decoded frame out of a reused Frame.
func cloneFrame(f *comm.Frame) *comm.Frame {
	c := *f
	c.Data = append([]float64(nil), f.Data...)
	c.Ints = append([]int64(nil), f.Ints...)
	return &c
}

// TestDataRoundTrip decodes every frame through one reused body buffer
// and Frame, forward and then backward, so each frame is also decoded
// over the leftovers of a larger one.
func TestDataRoundTrip(t *testing.T) {
	frames := []*comm.Frame{
		{},
		{Ctx: 7, Src: 3, Dst: 1, Tag: 1 << 26, SendVT: 1.25e-6, Arrival: 2.5e-6},
		{Src: -1, Tag: -1, Data: []float64{math.Inf(1), math.NaN(), -0.0}},
		{Ctx: math.MaxUint64, Data: []float64{1, 2, 3}, Ints: []int64{-9, 0, 1 << 62},
			CRC: 0xdeadbeef, Framed: true, SendVT: math.MaxFloat64},
	}
	var enc, buf []byte
	var got comm.Frame
	for pass := 0; pass < 2; pass++ {
		for k := range frames {
			i := k
			if pass == 1 {
				i = len(frames) - 1 - k
			}
			f := frames[i]
			enc = appendData(enc[:0], f)
			typ, body, err := readWire(bytes.NewReader(enc), &buf)
			if err != nil {
				t.Fatalf("frame %d: readWire: %v", i, err)
			}
			if typ != typData {
				t.Fatalf("frame %d: type %d", i, typ)
			}
			if err := decodeData(body, &got); err != nil {
				t.Fatalf("frame %d: decodeData: %v", i, err)
			}
			if !frameEqual(f, &got) {
				t.Fatalf("pass %d frame %d: round trip mismatch:\n  sent %+v\n  got  %+v", pass, i, f, &got)
			}
		}
	}
}

func TestControlRoundTrip(t *testing.T) {
	var buf []byte
	wire := appendDead(nil, 12)
	typ, body, err := readWire(bytes.NewReader(wire), &buf)
	if err != nil || typ != typDead {
		t.Fatalf("dead: type %d err %v", typ, err)
	}
	if w, err := decodeDead(body); err != nil || w != 12 {
		t.Fatalf("dead: got %d, %v", w, err)
	}

	wire = appendHello(nil, 3)
	typ, body, err = readWire(bytes.NewReader(wire), &buf)
	if err != nil || typ != typHello {
		t.Fatalf("hello: type %d err %v", typ, err)
	}
	if rank, err := decodeHello(body); err != nil || rank != 3 {
		t.Fatalf("hello: got %d, %v", rank, err)
	}

	addrs := []string{"a:1", "", "b:22", "c:333"}
	wire = appendTable(nil, addrs)
	typ, body, err = readWire(bytes.NewReader(wire), &buf)
	if err != nil || typ != typTable {
		t.Fatalf("table: type %d err %v", typ, err)
	}
	got, err := decodeTable(body)
	if err != nil || len(got) != len(addrs) {
		t.Fatalf("table: got %v, %v", got, err)
	}
	for i := range addrs {
		if got[i] != addrs[i] {
			t.Fatalf("table entry %d: %q != %q", i, got[i], addrs[i])
		}
	}
}

func TestReadWireRejects(t *testing.T) {
	good := appendData(nil, &comm.Frame{Data: []float64{1, 2}})

	corrupt := func(mutate func(b []byte)) []byte {
		b := append([]byte(nil), good...)
		mutate(b)
		return b
	}
	// A header declaring 100 MB, followed by only 10 bytes of body.
	lying := append(corrupt(func(b []byte) {
		binary.LittleEndian.PutUint32(b[6:], 100<<20)
	})[:headerLen], make([]byte, 10)...)
	cases := []struct {
		name string
		wire []byte
		want error
	}{
		{"empty", nil, io.EOF},
		{"truncated header", good[:5], ErrTruncated},
		{"truncated body", good[:len(good)-3], ErrTruncated},
		{"bad magic", corrupt(func(b []byte) { b[0] ^= 0xff }), ErrBadMagic},
		{"bad version", corrupt(func(b []byte) { b[4] = 99 }), ErrBadVersion},
		{"oversized length", corrupt(func(b []byte) {
			binary.LittleEndian.PutUint32(b[6:], MaxBodyBytes+1)
		}), ErrBadLength},
		{"body bit flip", corrupt(func(b []byte) { b[headerLen+20] ^= 1 }), ErrBadCRC},
		{"lying length on a reused buffer", lying, ErrTruncated},
	}
	// One buffer across every case, as the reader loop reuses it, primed
	// by a good frame.
	var buf []byte
	if _, _, err := readWire(bytes.NewReader(good), &buf); err != nil {
		t.Fatalf("good frame: %v", err)
	}
	for _, tc := range cases {
		if _, _, err := readWire(bytes.NewReader(tc.wire), &buf); err != tc.want {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}
	if cap(buf) > 64<<10 {
		t.Errorf("a lying length grew the body buffer to %d bytes, want at most one 64 KiB chunk", cap(buf))
	}
}

func TestDecodeDataRejectsCountMismatch(t *testing.T) {
	// A body whose element counts disagree with its length must error
	// before the payload slices grow.
	var f comm.Frame
	body := make([]byte, dataFixedLen)
	binary.LittleEndian.PutUint32(body[45:], 1<<30) // nData claims 8 GiB
	if err := decodeData(body, &f); err == nil {
		t.Fatal("oversized count accepted")
	}
	body = make([]byte, dataFixedLen+8)
	binary.LittleEndian.PutUint32(body[45:], 2) // two floats, one present
	if err := decodeData(body, &f); err == nil {
		t.Fatal("count/length mismatch accepted")
	}
	if cap(f.Data) != 0 || cap(f.Ints) != 0 {
		t.Fatalf("rejected bodies grew the frame: cap Data %d, Ints %d", cap(f.Data), cap(f.Ints))
	}
}

// decoded is one wire message of a fuzz input as the codec saw it, copied
// out of any reused buffer.
type decoded struct {
	typ   byte
	body  []byte
	frame *comm.Frame // typData only; nil when decodeData failed
	ferr  string
}

// decodeStream reads raw message by message until the first read error,
// which it returns. Messages go through *buf and fr when fr is non-nil,
// else through a fresh buffer and Frame each.
func decodeStream(t *testing.T, raw []byte, buf *[]byte, fr *comm.Frame) ([]decoded, error) {
	br := bytes.NewReader(raw)
	var out []decoded
	for {
		b, f := buf, fr
		if fr == nil {
			b, f = new([]byte), new(comm.Frame)
		}
		typ, body, err := readWire(br, b)
		if err != nil {
			return out, err // every malformed input must land here, not panic
		}
		if len(body) > MaxBodyBytes {
			t.Fatalf("readWire returned %d-byte body above cap", len(body))
		}
		out = append(out, decodeMsg(t, typ, body, f))
	}
}

// decodeMsg decodes one wire message's body by its type, through f for a
// data message, and returns it copied out of any reused buffer.
func decodeMsg(t *testing.T, typ byte, body []byte, f *comm.Frame) decoded {
	d := decoded{typ: typ, body: append([]byte(nil), body...)}
	switch typ {
	case typData:
		if err := decodeData(body, f); err != nil {
			d.ferr = err.Error()
			break
		}
		// Decoded payload sizes are bounded by the body that carried
		// them.
		if 8*(len(f.Data)+len(f.Ints)) > len(body) {
			t.Fatalf("decoded payload larger than body")
		}
		d.frame = cloneFrame(f)
	case typDead:
		decodeDead(body)
	case typHello:
		decodeHello(body)
	case typTable:
		decodeTable(body)
	case typJobHello:
		decodeJobHello(body)
	}
	return d
}

// streamDecode feeds raw through the inbound stream parser (inStream) the
// way reads fill it, in pieces whose lengths cycle through cuts (each
// byte plus one; all of raw in one piece when cuts is empty) and cut
// again by the room each read has. It returns the messages dispatched
// and the error that ended the stream. The buffer may never hold more
// than one chunk or a quarter past the bytes that have arrived.
func streamDecode(t *testing.T, raw, cuts []byte) ([]decoded, error) {
	var s inStream
	var out []decoded
	arrived := 0
	for i := 0; ; i++ {
		for {
			typ, body, ok, err := s.next()
			if err != nil {
				return out, err
			}
			if !ok {
				break
			}
			out = append(out, decodeMsg(t, typ, body, &s.f))
		}
		if arrived == len(raw) {
			// What readWire reports for a stream ending here.
			if s.off < len(s.buf) {
				return out, ErrTruncated
			}
			return out, io.EOF
		}
		room := s.space()
		if cap(s.buf) > arrived+max(streamChunk, arrived/4) {
			t.Fatalf("stream buffer of %d bytes after %d arrived", cap(s.buf), arrived)
		}
		piece := len(raw) - arrived
		if len(cuts) > 0 {
			piece = min(piece, 1+int(cuts[i%len(cuts)]))
		}
		n := copy(room, raw[arrived:arrived+piece])
		s.buf = s.buf[:len(s.buf)+n]
		arrived += n
	}
}

// FuzzReadFrame holds the codec to its contract under arbitrary input:
// truncated, oversized, and corrupt frames must error — never panic and
// never allocate beyond the declared caps. Every input is decoded three
// times: fresh, through one body buffer and Frame left dirty by a larger
// earlier frame, and through the inbound stream parser in fuzz-chosen
// pieces. All three must agree exactly, on the messages and on the error
// that ends them: no byte of an earlier frame may leak into a shorter
// one, and where a read happens to cut the stream must not matter. Wired
// into `make fuzz-smoke`.
func FuzzReadFrame(f *testing.F) {
	f.Add(appendData(nil, &comm.Frame{Data: []float64{1, 2, 3}, Ints: []int64{4}, Framed: true, CRC: 9}), []byte{4, 0, 30})
	f.Add(appendDead(nil, 3), []byte{})
	f.Add(appendHello(nil, 1), []byte{0})
	f.Add(appendTable(nil, []string{"a:1", "b:2"}), []byte{13})
	f.Add(appendWire(nil, typBye, nil), []byte{2, 255})
	f.Add([]byte{0x57, 0x54, 0x4d, 0x43}, []byte{1}) // reversed magic
	f.Add(make([]byte, headerLen), []byte{})
	// A frame larger than one chunk, then a small one: the stream buffer
	// must grow past its first 64 KiB and then be reused.
	f.Add(appendWire(appendData(nil, &comm.Frame{Data: make([]float64, 9000)}), typBye, nil), []byte{255, 200, 7})
	f.Add(appendJobHello(nil, "job", 1, 4, "127.0.0.1:9"), []byte{5})

	// The dirty state: a 4 KiB frame of all-ones bits, read and decoded.
	big := &comm.Frame{Ctx: math.MaxUint64, Src: -7, Dst: -7, Tag: -7, CRC: math.MaxUint32, Framed: true,
		SendVT: math.NaN(), Arrival: math.NaN(), Data: make([]float64, 256), Ints: make([]int64, 256)}
	for i := range big.Data {
		big.Data[i] = math.Float64frombits(math.MaxUint64)
		big.Ints[i] = -1
	}
	bigWire := appendData(nil, big)

	f.Fuzz(func(t *testing.T, raw, cuts []byte) {
		fresh, ferr := decodeStream(t, raw, nil, nil)
		streamed, serr := streamDecode(t, raw, cuts)
		if serr != ferr || len(streamed) != len(fresh) {
			t.Fatalf("readWire: %d messages then %v; stream: %d then %v", len(fresh), ferr, len(streamed), serr)
		}
		for i := range fresh {
			if !decodedEqual(fresh[i], streamed[i]) {
				t.Fatalf("message %d: readWire and stream decodes differ:\n  readWire %+v\n  stream   %+v", i, fresh[i], streamed[i])
			}
		}

		var buf []byte
		var fr comm.Frame
		if _, body, err := readWire(bytes.NewReader(bigWire), &buf); err != nil || decodeData(body, &fr) != nil {
			t.Fatalf("dirtying frame: %v", err)
		}
		reused, rerr := decodeStream(t, raw, &buf, &fr)

		if ferr != rerr || len(fresh) != len(reused) {
			t.Fatalf("fresh decode: %d messages then %v; reused: %d then %v", len(fresh), ferr, len(reused), rerr)
		}
		for i := range fresh {
			a, b := fresh[i], reused[i]
			if !decodedEqual(a, b) {
				t.Fatalf("message %d: fresh and reused decodes differ:\n  fresh  %+v\n  reused %+v", i, a, b)
			}
			if a.frame == nil {
				continue
			}
			reenc := appendData(nil, a.frame)
			var rb []byte
			typ2, body2, err2 := readWire(bytes.NewReader(reenc), &rb)
			if err2 != nil || typ2 != typData {
				t.Fatalf("re-encode failed: %v", err2)
			}
			var fr2 comm.Frame
			if err2 := decodeData(body2, &fr2); err2 != nil || !frameEqual(a.frame, &fr2) {
				t.Fatalf("decode/encode/decode not stable")
			}
		}
	})
}

func decodedEqual(a, b decoded) bool {
	return a.typ == b.typ && bytes.Equal(a.body, b.body) && a.ferr == b.ferr &&
		(a.frame == nil) == (b.frame == nil) && (a.frame == nil || frameEqual(a.frame, b.frame))
}

// A read deadline that expires before a message's first byte is a
// timeout, not a truncated frame; one that expires inside the header or
// the body cuts a frame short and is ErrTruncated.
func TestReadWireDeadline(t *testing.T) {
	good := appendData(nil, &comm.Frame{Data: []float64{1, 2}})
	for _, tc := range []struct {
		name string
		sent []byte
		want func(error) bool
	}{
		{"nothing sent", nil, func(err error) bool {
			return errors.Is(err, os.ErrDeadlineExceeded) && !errors.Is(err, ErrTruncated)
		}},
		{"partial header", good[:5], func(err error) bool { return err == ErrTruncated }},
		{"partial body", good[:len(good)-3], func(err error) bool { return err == ErrTruncated }},
	} {
		a, b := net.Pipe()
		go b.Write(tc.sent)
		_, _, err := readWireDeadline(a, time.Now().Add(50*time.Millisecond))
		a.Close()
		b.Close()
		if !tc.want(err) {
			t.Errorf("%s: err = %v", tc.name, err)
		}
	}
}
