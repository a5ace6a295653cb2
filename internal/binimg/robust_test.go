package binimg

import (
	"math/rand"
	"testing"
	"testing/quick"

	"fits/internal/isa"
)

// Property: Decode never panics, whatever the bytes — it either errors or
// returns a structurally valid binary.
func TestQuickDecodeNeverPanics(t *testing.T) {
	f := func(seed int64) (ok bool) {
		defer func() {
			if recover() != nil {
				ok = false
			}
		}()
		r := rand.New(rand.NewSource(seed))
		n := r.Intn(512)
		buf := make([]byte, n)
		r.Read(buf)
		// Half the time, make it look like a real header so decoding gets
		// past the magic check and exercises the field parsers.
		if r.Intn(2) == 0 && n > len(Magic) {
			copy(buf, Magic)
		}
		b, err := Decode(buf)
		if err == nil && b == nil {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// Property: truncating a valid image at any point yields an error, never a
// panic or a silently wrong binary.
func TestQuickDecodeTruncations(t *testing.T) {
	enc := sample().Encode()
	for cut := 0; cut < len(enc); cut++ {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panic at cut %d: %v", cut, r)
				}
			}()
			_, err := Decode(enc[:cut])
			if err == nil {
				t.Fatalf("truncation at %d decoded successfully", cut)
			}
		}()
	}
}

// Property: flipping any single byte either errors or still yields a binary
// whose accessors are safe to call.
func TestQuickDecodeBitflips(t *testing.T) {
	enc := sample().Encode()
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 300; i++ {
		pos := r.Intn(len(enc))
		mut := append([]byte(nil), enc...)
		mut[pos] ^= byte(1 + r.Intn(255))
		b, err := Decode(mut)
		if err != nil {
			continue
		}
		// Exercise accessors on the mutant.
		b.SectionOf(b.Entry)
		b.WordAt(b.Data.Addr)
		b.CString(b.Rodata.Addr)
		for off := 0; off+isa.Width <= len(b.Text.Data); off += isa.Width {
			_, _ = b.InstrAt(b.Text.Addr + uint32(off))
		}
	}
}
