package rpc

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
)

// refDecode is an independent reading of the frame format: it returns
// the first frame in b and its encoded length, or ok false when b does
// not start with a complete, well-formed frame.
func refDecode(b []byte) (f frame, n int, ok bool) {
	if len(b) < 4 {
		return frame{}, 0, false
	}
	total := int(binary.BigEndian.Uint32(b))
	if total > MaxFrameSize || total < 11 || len(b) < 4+total {
		return frame{}, 0, false
	}
	mlen := int(binary.BigEndian.Uint16(b[13:15]))
	if 11+mlen > total {
		return frame{}, 0, false
	}
	return frame{
		typ:     b[4],
		id:      binary.BigEndian.Uint64(b[5:13]),
		method:  string(b[15 : 15+mlen]),
		payload: b[15+mlen : 4+total],
	}, 4 + total, true
}

// FuzzReadFrame drives the buffered frame read path of both connection
// loops. Arbitrary bytes must never panic it, every frame it accepts
// must be exactly what the format says the bytes hold, malformed frames
// (oversized, undersized, method overrunning the frame) are rejected,
// and any writeFrame output reads back unchanged.
func FuzzReadFrame(f *testing.F) {
	seed := func(fr frame) []byte {
		var buf bytes.Buffer
		if err := writeFrame(&buf, fr); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	valid := seed(frame{typ: frameRequest, id: 7, method: "queue.reply", payload: []byte(`{"queue":"q"}`)})
	f.Add(valid, uint64(7), "queue.reply", []byte(`{"queue":"q"}`))
	f.Add(append(valid, seed(frame{typ: frameResponse, id: 8})...), uint64(0), "", []byte(nil))
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF}, uint64(1), "m", []byte("x"))
	f.Add([]byte{0, 0, 0, 5, 1, 2, 3, 4, 5}, uint64(1), "m", []byte("x"))
	f.Add([]byte{0, 0, 0, 11, 1, 0, 0, 0, 0, 0, 0, 0, 1, 0xFF, 0xFF}, uint64(2), "echo", bytes.Repeat([]byte{9}, 3000))
	f.Add(valid[:len(valid)-3], uint64(3), "queue.pull", []byte{})

	f.Fuzz(func(t *testing.T, raw []byte, id uint64, method string, payload []byte) {
		for _, pooled := range []bool{false, true} {
			br := bufio.NewReaderSize(bytes.NewReader(raw), readBufSize)
			rest := raw
			for {
				got, err := readFrameInto(br, pooled)
				want, n, ok := refDecode(rest)
				if !ok {
					if err == nil {
						t.Fatalf("accepted a malformed frame %+v from % x", got, rest)
					}
					if len(rest) >= 4 && binary.BigEndian.Uint32(rest) > MaxFrameSize && !errors.Is(err, ErrFrameTooLarge) {
						t.Fatalf("oversized frame: got %v, want ErrFrameTooLarge", err)
					}
					break
				}
				if err != nil {
					t.Fatalf("rejected a well-formed frame: %v", err)
				}
				if got.typ != want.typ || got.id != want.id || got.method != want.method || !bytes.Equal(got.payload, want.payload) {
					t.Fatalf("frame read as %+v, want %+v", got, want)
				}
				recycleFrame(&got)
				rest = rest[n:]
			}
		}

		if len(method) > 0xFFFF {
			method = method[:0xFFFF]
		}
		in := frame{typ: frameRequest, id: id, method: method, payload: payload}
		var buf bytes.Buffer
		if err := writeFrame(&buf, in); err != nil {
			t.Fatalf("writeFrame: %v", err)
		}
		out, err := readFrameInto(bufio.NewReaderSize(&buf, readBufSize), true)
		if err != nil {
			t.Fatalf("reading back a written frame: %v", err)
		}
		if out.typ != in.typ || out.id != in.id || out.method != in.method || !bytes.Equal(out.payload, in.payload) {
			t.Fatalf("round trip changed the frame: %+v, want %+v", out, in)
		}
		recycleFrame(&out)
	})
}
