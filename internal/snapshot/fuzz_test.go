package snapshot

import (
	"bytes"
	"errors"
	"testing"
)

// FuzzSnapshotDecode feeds raw checkpoint bytes to Decode. Whatever the
// input, Decode must not panic and every error must wrap one of the tagged
// classes. A successful decode is a canonical checkpoint: Decode rejects
// trailing bytes and commit frames with a payload, so re-encoding the
// sections at the decoded sequence must reproduce the input exactly.
func FuzzSnapshotDecode(f *testing.F) {
	var buf bytes.Buffer
	if err := Encode(&buf, 7, sampleSections()); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)-9]) // torn inside the commit frame
	flipped := bytes.Clone(valid)
	flipped[len(fileMagic)+headerSize+3] ^= 0x10 // a payload byte of the first section
	f.Add(flipped)

	f.Fuzz(func(t *testing.T, data []byte) {
		sections, seq, err := Decode(data)
		if err != nil {
			if !errors.Is(err, ErrTorn) && !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrIncomplete) {
				t.Fatalf("untagged decode error: %v", err)
			}
			return
		}
		var re bytes.Buffer
		if err := Encode(&re, seq, sections); err != nil {
			t.Fatalf("re-encoding a decoded checkpoint: %v", err)
		}
		if !bytes.Equal(re.Bytes(), data) {
			t.Fatalf("re-encoding %d sections at seq %d gives %d bytes that differ from the %d input bytes",
				len(sections), seq, re.Len(), len(data))
		}
	})
}
