package pcap

import (
	"bytes"
	"encoding/binary"
	"io"
	"testing"
	"time"
)

// validCapture builds a well-formed little-endian capture with n packets,
// used to seed the fuzz corpus with inputs that exercise the happy path
// before the mutator corrupts them.
func validCapture(n int, snaplen uint32) []byte {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, WriterOptions{SnapLen: snaplen})
	if err != nil {
		panic(err)
	}
	for i := 0; i < n; i++ {
		data := make([]byte, 44)
		for j := range data {
			data[j] = byte(i + j)
		}
		if err := w.WritePacket(Packet{
			Timestamp: time.Unix(int64(1000+i), int64(i)*1000).UTC(),
			Data:      data,
			OrigLen:   1500,
		}); err != nil {
			panic(err)
		}
	}
	if err := w.Flush(); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// FuzzReader feeds arbitrary bytes to the pcap reader. The invariant under
// fuzzing is purely defensive: whatever the input, the reader must return
// errors (or packets) without panicking, and every returned packet must
// respect the allocation bound — a corrupt incl_len can never buy a
// larger-than-snaplen slice.
func FuzzReader(f *testing.F) {
	f.Add(validCapture(3, 65535))
	f.Add(validCapture(1, 44))
	// Zero snaplen in the header: the reader must fall back to MaxSnapLen,
	// not treat it as unlimited.
	zeroSnap := validCapture(1, 44)
	binary.LittleEndian.PutUint32(zeroSnap[16:20], 0)
	f.Add(zeroSnap)
	// Truncated mid-record.
	trunc := validCapture(2, 65535)
	f.Add(trunc[:len(trunc)-20])
	// Hostile incl_len: header claims a 1 GiB record.
	hostile := validCapture(1, 65535)
	binary.LittleEndian.PutUint32(hostile[fileHeaderLen+8:fileHeaderLen+12], 1<<30)
	f.Add(hostile)
	// Bad magic and an empty input.
	f.Add([]byte("not a pcap file at all"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := NewReader(bytes.NewReader(data))
		if err != nil {
			return // malformed header rejected: fine
		}
		bound := r.snaplen
		if bound == 0 || bound > MaxSnapLen {
			bound = MaxSnapLen
		}
		for i := 0; i < 1000; i++ {
			p, err := r.ReadPacket()
			if err != nil {
				if err != io.EOF && err.Error() == "" {
					t.Fatal("empty error message")
				}
				return
			}
			if uint32(len(p.Data)) > bound {
				t.Fatalf("packet data %d bytes exceeds bound %d (snaplen %d)", len(p.Data), bound, r.snaplen)
			}
		}
	})
}
