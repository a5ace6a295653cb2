package binimg

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"fits/internal/isa"
)

func sample() *Binary {
	text := isa.ArchARM.EncodeAll([]isa.Instr{
		{Op: isa.OpMovi, Rd: isa.R0, Imm: 1},
		{Op: isa.OpRet},
		{Op: isa.OpTramp, Imm: 0x30010},
	})
	rodata := append([]byte("hello\x00world\x00"), 0)
	data := make([]byte, 16)
	binary.LittleEndian.PutUint32(data[0:], 0x10000) // a function pointer
	return &Binary{
		Name:    "httpd",
		Arch:    isa.ArchARM,
		Entry:   0x10000,
		Text:    Section{Addr: 0x10000, Data: text},
		Rodata:  Section{Addr: 0x20000, Data: rodata},
		Data:    Section{Addr: 0x30000, Data: data},
		BssAddr: 0x40000,
		BssSize: 64,
		Needed:  []string{"libc.so"},
		Exports: []Sym{{Name: "main", Addr: 0x10000}},
		Imports: []Import{{Name: "recv", Stub: 0x10010, GOT: 0x30010}},
		Funcs:   []Sym{{Name: "main", Addr: 0x10000}, {Name: "fn1", Addr: 0x10008}},
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	b := sample()
	enc := b.Encode()
	got, err := Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(b, got) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, b)
	}
}

func TestStrip(t *testing.T) {
	b := sample()
	b.Strip()
	if b.Funcs != nil || !b.Stripped {
		t.Error("strip left debug info")
	}
	got, err := Decode(b.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !got.Stripped || len(got.Funcs) != 0 {
		t.Error("stripped flag not preserved")
	}
	// Dynamic information must survive stripping.
	if _, ok := got.ExportAt(0x10000); !ok {
		t.Error("exports lost on strip")
	}
	if _, ok := got.ImportAtStub(0x10010); !ok {
		t.Error("imports lost on strip")
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, err := Decode([]byte("ELF")); err != ErrBadMagic {
		t.Errorf("bad magic: %v", err)
	}
	enc := sample().Encode()
	if _, err := Decode(enc[:20]); err == nil {
		t.Error("expected error for truncated input")
	}
	// Corrupt the architecture byte.
	bad := append([]byte(nil), enc...)
	bad[len(Magic)] = 99
	if _, err := Decode(bad); err == nil {
		t.Error("expected error for bad arch")
	}
}

func TestDecodeRejectsMisalignedText(t *testing.T) {
	b := sample()
	b.Text.Data = b.Text.Data[:len(b.Text.Data)-1]
	if _, err := Decode(b.Encode()); err == nil {
		t.Error("expected error for misaligned text")
	}
}

func TestSectionQueries(t *testing.T) {
	b := sample()
	cases := map[uint32]string{
		0x10000: "text", 0x10008: "text",
		0x20000: "rodata", 0x30004: "data",
		0x40000: "bss", 0x4003f: "bss",
		0x50000: "", 0x9: "",
	}
	for addr, want := range cases {
		if got := b.SectionOf(addr); got != want {
			t.Errorf("SectionOf(%#x) = %q, want %q", addr, got, want)
		}
	}
	if got := b.Text.End(); got != 0x10000+uint32(len(b.Text.Data)) {
		t.Errorf("End = %#x", got)
	}
}

func TestReadWordAndByte(t *testing.T) {
	b := sample()
	w, ok := b.WordAt(0x30000)
	if !ok || w != 0x10000 {
		t.Errorf("WordAt = %#x, %v", w, ok)
	}
	if _, ok := b.WordAt(0x30000 + uint32(len(b.Data.Data)) - 1); ok {
		t.Error("WordAt should fail when word spans section end")
	}
	c, ok := b.ByteAt(0x20001)
	if !ok || c != 'e' {
		t.Errorf("ByteAt = %q, %v", c, ok)
	}
	if _, ok := b.ByteAt(0x99999); ok {
		t.Error("ByteAt should fail outside sections")
	}
}

func TestCString(t *testing.T) {
	b := sample()
	s, ok := b.CString(0x20000)
	if !ok || s != "hello" {
		t.Errorf("CString = %q, %v", s, ok)
	}
	s, ok = b.CString(0x20006)
	if !ok || s != "world" {
		t.Errorf("CString = %q, %v", s, ok)
	}
	if _, ok := b.CString(0x10000); ok {
		t.Error("CString should not read text")
	}
	// Unterminated string at section end is returned as-is.
	b2 := &Binary{Rodata: Section{Addr: 0x100, Data: []byte("abc")}}
	if s, ok := b2.CString(0x100); !ok || s != "abc" {
		t.Errorf("unterminated = %q, %v", s, ok)
	}
}

func TestSymbolQueries(t *testing.T) {
	b := sample()
	if im, ok := b.ImportAtStub(0x10010); !ok || im.Name != "recv" {
		t.Errorf("ImportAtStub = %+v, %v", im, ok)
	}
	if _, ok := b.ImportAtStub(0x10008); ok {
		t.Error("unexpected import at non-stub")
	}
	if im, ok := b.ImportForGOT(0x30010); !ok || im.Name != "recv" {
		t.Errorf("ImportForGOT = %+v, %v", im, ok)
	}
	if name, ok := b.ExportAt(0x10000); !ok || name != "main" {
		t.Errorf("ExportAt = %q, %v", name, ok)
	}
	if _, ok := b.ExportAt(0x10004); ok {
		t.Error("unexpected export")
	}
	if name, ok := b.FuncName(0x10008); !ok || name != "fn1" {
		t.Errorf("FuncName = %q, %v", name, ok)
	}
}

func TestSortedFuncsAndSize(t *testing.T) {
	b := sample()
	want := len(b.Text.Data) + len(b.Rodata.Data) + len(b.Data.Data) + int(b.BssSize)
	if b.Size() != want {
		t.Errorf("Size = %d, want %d", b.Size(), want)
	}
}

func TestInstructions(t *testing.T) {
	b := sample()
	if n := len(b.Text.Data) / isa.Width; n != 3 {
		t.Errorf("text holds %d instructions, want 3", n)
	}
	in, err := b.InstrAt(b.Text.Addr)
	if err != nil || in.Op != isa.OpMovi {
		t.Errorf("InstrAt(text start) = %v, %v", in, err)
	}
	in, err = b.InstrAt(0x10008)
	if err != nil || in.Op != isa.OpRet {
		t.Errorf("InstrAt = %v, %v", in, err)
	}
	if _, err := b.InstrAt(0x10001); err == nil {
		t.Error("expected misalignment error")
	}
	if _, err := b.InstrAt(0x90000); err == nil {
		t.Error("expected out-of-text error")
	}
}

func TestIsBinary(t *testing.T) {
	if !IsBinary(sample().Encode()) {
		t.Error("IsBinary false for valid image")
	}
	if IsBinary([]byte("FB")) || IsBinary([]byte("NOTBIN")) {
		t.Error("IsBinary true for junk")
	}
}

// Property: encode/decode round-trips random binaries.
func TestQuickRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		randStr := func() string {
			n := r.Intn(12)
			b := make([]byte, n)
			for i := range b {
				b[i] = byte('a' + r.Intn(26))
			}
			return string(b)
		}
		b := &Binary{
			Name:    randStr(),
			Arch:    isa.Arch(1 + r.Intn(3)),
			Entry:   r.Uint32(),
			BssAddr: r.Uint32(),
			BssSize: r.Uint32() % 4096,
		}
		b.Text = Section{Addr: r.Uint32(), Data: make([]byte, isa.Width*r.Intn(8))}
		r.Read(b.Text.Data)
		b.Rodata = Section{Addr: r.Uint32(), Data: make([]byte, r.Intn(64))}
		r.Read(b.Rodata.Data)
		b.Data = Section{Addr: r.Uint32(), Data: make([]byte, r.Intn(64))}
		r.Read(b.Data.Data)
		for i := 0; i < r.Intn(4); i++ {
			b.Needed = append(b.Needed, randStr())
		}
		for i := 0; i < r.Intn(4); i++ {
			b.Exports = append(b.Exports, Sym{Name: randStr(), Addr: r.Uint32()})
		}
		for i := 0; i < r.Intn(4); i++ {
			b.Imports = append(b.Imports, Import{Name: randStr(), Stub: r.Uint32(), GOT: r.Uint32()})
		}
		for i := 0; i < r.Intn(4); i++ {
			b.Funcs = append(b.Funcs, Sym{Name: randStr(), Addr: r.Uint32()})
		}
		got, err := Decode(b.Encode())
		if err != nil {
			return false
		}
		return reflect.DeepEqual(b, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestMagicPrefix(t *testing.T) {
	enc := sample().Encode()
	if !bytes.HasPrefix(enc, Magic) {
		t.Error("encoded binary must start with magic")
	}
}
