package firmware

import (
	"bytes"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func sample() *Image {
	return &Image{
		Vendor:  "NETGEAR",
		Product: "R7000P",
		Version: "V1.3.0.8",
		Files: []File{
			{Path: "bin/httpd", Data: []byte("FBIN1-pretend-binary")},
			{Path: "lib/libc.so", Data: []byte{0, 1, 2, 3, 255}},
			{Path: "etc/version", Data: []byte("1.3.0.8\n")},
		},
	}
}

func TestPackUnpackPlain(t *testing.T) {
	im := sample()
	raw := im.Pack(PackOptions{})
	got, err := Unpack(raw)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(im, got) {
		t.Errorf("round trip mismatch: %+v", got)
	}
}

func TestPackUnpackAllSchemesWithPadding(t *testing.T) {
	for _, scheme := range []Scheme{SchemeNone, SchemeXOR, SchemeStream} {
		im := sample()
		raw := im.Pack(PackOptions{Scheme: scheme, Key: 0xdeadbeef, Padding: 513, PadSeed: 7})
		got, err := Unpack(raw)
		if err != nil {
			t.Fatalf("%v: %v", scheme, err)
		}
		if !reflect.DeepEqual(im, got) {
			t.Errorf("%v: round trip mismatch", scheme)
		}
	}
}

func TestEncryptionActuallyEncrypts(t *testing.T) {
	im := sample()
	for _, scheme := range []Scheme{SchemeXOR, SchemeStream} {
		raw := im.Pack(PackOptions{Scheme: scheme, Key: 1234})
		if bytes.Contains(raw, []byte("httpd")) {
			t.Errorf("%v: plaintext visible in packed image", scheme)
		}
	}
	plain := im.Pack(PackOptions{})
	if !bytes.Contains(plain, []byte("httpd")) {
		t.Error("plaintext should be visible without encryption")
	}
}

func TestDifferentKeysDifferentCiphertext(t *testing.T) {
	im := sample()
	a := im.Pack(PackOptions{Scheme: SchemeStream, Key: 1})
	b := im.Pack(PackOptions{Scheme: SchemeStream, Key: 2})
	if bytes.Equal(a, b) {
		t.Error("stream cipher ignores key")
	}
}

func TestChecksumDetectsCorruption(t *testing.T) {
	raw := sample().Pack(PackOptions{})
	// Flip a byte in the middle of the payload.
	raw[len(raw)/2] ^= 0xff
	if _, err := Unpack(raw); err == nil {
		t.Error("expected error for corrupted payload")
	}
}

func TestUnpackNoImage(t *testing.T) {
	if _, err := Unpack([]byte("not firmware at all")); err != ErrNoImage {
		t.Errorf("err = %v, want ErrNoImage", err)
	}
	if _, err := Unpack(nil); err != ErrNoImage {
		t.Errorf("err = %v, want ErrNoImage", err)
	}
}

func TestUnpackTruncatedWrapper(t *testing.T) {
	raw := sample().Pack(PackOptions{Scheme: SchemeXOR, Key: 5})
	if _, err := Unpack(raw[:len(MagicXOR)+2]); err == nil {
		t.Error("expected error for truncated wrapper")
	}
	raw = sample().Pack(PackOptions{Scheme: SchemeStream, Key: 5})
	if _, err := Unpack(raw[:len(MagicStream)+4]); err == nil {
		t.Error("expected error for truncated stream wrapper")
	}
}

func TestCarvingSkipsLeadingJunk(t *testing.T) {
	im := sample()
	raw := im.Pack(PackOptions{Scheme: SchemeXOR, Key: 99, Padding: 4096, PadSeed: 3})
	got, err := Unpack(raw)
	if err != nil {
		t.Fatal(err)
	}
	if got.Vendor != "NETGEAR" {
		t.Errorf("vendor = %q", got.Vendor)
	}
}

func TestDetectScheme(t *testing.T) {
	im := sample()
	cases := []Scheme{SchemeNone, SchemeXOR, SchemeStream}
	for _, want := range cases {
		raw := im.Pack(PackOptions{Scheme: want, Key: 7, Padding: 64, PadSeed: 1})
		if got := DetectScheme(raw); got != want {
			t.Errorf("DetectScheme(%v image) = %v", want, got)
		}
	}
	if got := DetectScheme([]byte("junk")); got != SchemeNone {
		t.Errorf("DetectScheme(junk) = %v", got)
	}
}

func TestLookupAndPaths(t *testing.T) {
	im := sample()
	f, ok := im.Lookup("bin/httpd")
	if !ok || !bytes.HasPrefix(f.Data, []byte("FBIN1")) {
		t.Errorf("Lookup = %+v, %v", f, ok)
	}
	if _, ok := im.Lookup("bin/nope"); ok {
		t.Error("unexpected file")
	}
	var paths []string
	for _, f := range im.Files {
		paths = append(paths, f.Path)
	}
	sort.Strings(paths)
	if len(paths) != 3 || paths[0] != "bin/httpd" {
		t.Errorf("paths = %v", paths)
	}
}

func TestSchemeString(t *testing.T) {
	if SchemeNone.String() != "none" || SchemeXOR.String() != "xor" || SchemeStream.String() != "stream" {
		t.Error("scheme stringers wrong")
	}
	if Scheme(9).String() == "" {
		t.Error("unknown scheme stringer empty")
	}
}

func TestEmptyImage(t *testing.T) {
	im := &Image{Vendor: "X"}
	got, err := Unpack(im.Pack(PackOptions{}))
	if err != nil {
		t.Fatal(err)
	}
	if got.Vendor != "X" || len(got.Files) != 0 {
		t.Errorf("got %+v", got)
	}
}

// Property: pack/unpack round-trips random images under all schemes.
func TestQuickRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		randStr := func() string {
			n := 1 + r.Intn(10)
			b := make([]byte, n)
			for i := range b {
				b[i] = byte('a' + r.Intn(26))
			}
			return string(b)
		}
		im := &Image{Vendor: randStr(), Product: randStr(), Version: randStr()}
		for i := 0; i < r.Intn(5); i++ {
			data := make([]byte, r.Intn(200))
			r.Read(data)
			im.Files = append(im.Files, File{Path: randStr(), Data: data})
		}
		opts := PackOptions{
			Scheme:  Scheme(r.Intn(3)),
			Key:     r.Uint32(),
			Padding: r.Intn(300),
			PadSeed: byte(r.Uint32()),
		}
		got, err := Unpack(im.Pack(opts))
		if err != nil {
			return false
		}
		if len(got.Files) == 0 {
			got.Files = nil
		}
		want := *im
		if len(want.Files) == 0 {
			want.Files = nil
		}
		return reflect.DeepEqual(&want, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}
