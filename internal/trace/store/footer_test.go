package store

import (
	"encoding/binary"
	"errors"
	"math"
	"testing"

	"repro/internal/snapshot"
)

// A footer frame can carry a recomputed CRC, so its boundary count and
// geometry are untrusted: parseFooter must refuse a count the payload
// cannot hold or a duration/every quotient outside the int range — never
// wrap the directory length negative, convert the quotient, or attempt the
// allocation.
func TestParseFooterRejectsOversizedGeometry(t *testing.T) {
	header := func(every, warmup, duration float64, nb uint64) []byte {
		p := make([]byte, footerHdrLen+64)
		binary.LittleEndian.PutUint64(p[0:], math.Float64bits(every))
		binary.LittleEndian.PutUint64(p[8:], math.Float64bits(warmup))
		binary.LittleEndian.PutUint64(p[16:], math.Float64bits(duration))
		binary.LittleEndian.PutUint64(p[24:], 0) // programs
		binary.LittleEndian.PutUint64(p[32:], nb)
		return p
	}
	for name, payload := range map[string][]byte{
		// nb·24 wraps past 2^63, so the directory length reads negative.
		"count-wraps-directory": header(1, 0, 5e17, 5e17+1),
		// The int conversion of these quotients is undefined.
		"quotient-inf":      header(1e-300, 0, 1e300, 0),
		"quotient-past-int": header(1, 0, 1e19, 0),
	} {
		t.Run(name, func(t *testing.T) {
			fi, err := parseFooter(payload)
			if !errors.Is(err, snapshot.ErrCorrupt) {
				t.Fatalf("parseFooter = %v, %v; want an ErrCorrupt error", fi, err)
			}
		})
	}
}
