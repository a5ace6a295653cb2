package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"fits/internal/optbuild"
	"fits/internal/synth"
)

// benchImage memoizes one synthetic firmware image.
var benchImage = sync.OnceValue(func() []byte {
	s, err := synth.Generate(synth.Dataset()[0])
	if err != nil {
		panic(err)
	}
	return s.Packed
})

// envelopeOf builds kind k's envelope carrying in inline under spec.
func envelopeOf(k *jobKind, in [][]byte, spec optbuild.Spec) Request {
	switch k.name {
	case KindDiff:
		return &DiffSubmitRequest{OldFirmware: in[0], NewFirmware: in[1], Options: spec}
	case KindCorpus:
		return &CorpusSubmitRequest{Corpus: in[0], Options: spec}
	}
	return &SubmitRequest{Firmware: in[0], Options: spec}
}

// decode runs body through the submit decoder of kind k.
func (s *Server) decode(k *jobKind, contentType string, body []byte) ([][]byte, optbuild.Spec, error) {
	r := httptest.NewRequest(http.MethodPost, k.route, bytes.NewReader(body))
	r.Header.Set("Content-Type", contentType)
	return s.readSubmission(r, k)
}

// setsPath reports whether body, read as kind k's JSON envelope, names an
// input by a server-side path.
func setsPath(k *jobKind, body []byte) bool {
	req := k.request()
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if dec.Decode(req) != nil {
		return false
	}
	_, inputs := req.envelope()
	for _, x := range inputs {
		if x.path != "" {
			return true
		}
	}
	return false
}

// FuzzReadSubmission feeds the submit decoder JSON, multipart and
// octet-stream bodies of every kind. Nothing may panic, no decoded input
// may be empty or exceed the upload limit, and whatever a body decodes to,
// the same inputs and options sent as a JSON envelope and as a multipart
// form decode to the same thing. A body naming a server-side path is
// skipped: the path would be a file of the machine running the fuzzer.
func FuzzReadSubmission(f *testing.F) {
	spec := optbuild.Spec{Scan: true, TopK: 2, Engine: "symbolic"}
	for i, k := range jobKinds {
		_, inputs := k.request().envelope()
		in := make([][]byte, len(inputs))
		for j := range in {
			in[j] = []byte("input-" + inputs[j].inlineField)
		}
		req := envelopeOf(k, in, spec)
		js, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		mp, ct, err := EncodeSubmission(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(uint8(i), "application/json", js)
		f.Add(uint8(i), ct, mp)
		f.Add(uint8(i), "application/octet-stream", in[0])
	}
	const limit = 256
	s := &Server{cfg: Config{MaxUploadBytes: limit}}
	// Re-encoded bodies carry base64 or framing beyond the limit's reach.
	wide := &Server{cfg: Config{MaxUploadBytes: 1 << 20}}
	f.Fuzz(func(t *testing.T, kind uint8, contentType string, body []byte) {
		k := jobKinds[int(kind)%len(jobKinds)]
		if setsPath(k, body) {
			t.Skip("names a server-side path")
		}
		in, spec, err := s.decode(k, contentType, body)
		if err != nil {
			return
		}
		for i, b := range in {
			if len(b) == 0 || len(b) > limit {
				t.Fatalf("input %d has %d bytes, limit %d", i, len(b), limit)
			}
		}
		req := envelopeOf(k, in, spec)
		js, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		mp, ct, err := EncodeSubmission(req)
		if err != nil {
			t.Fatal(err)
		}
		jin, jspec, jerr := wide.decode(k, "application/json", js)
		pin, mspec, merr := wide.decode(k, ct, mp)
		if jerr != nil || merr != nil {
			t.Fatalf("re-encoded bodies refused: json %v, multipart %v", jerr, merr)
		}
		if !reflect.DeepEqual(jin, pin) || !reflect.DeepEqual(jspec, mspec) {
			t.Fatalf("JSON decodes to %q %+v, multipart to %q %+v", jin, jspec, pin, mspec)
		}
		if !reflect.DeepEqual(pin, in) {
			t.Fatalf("re-encoded inputs %q, want %q", pin, in)
		}
	})
}

// BenchmarkReadSubmission decodes one synthetic image submitted as a JSON
// envelope (base64) and as a multipart form (raw bytes).
func BenchmarkReadSubmission(b *testing.B) {
	raw := benchImage()
	req := &SubmitRequest{Firmware: raw, Options: optbuild.Spec{Scan: true, SeedITS: true}}
	js, err := json.Marshal(req)
	if err != nil {
		b.Fatal(err)
	}
	mp, ct, err := EncodeSubmission(req)
	if err != nil {
		b.Fatal(err)
	}
	s := &Server{cfg: Config{MaxUploadBytes: DefaultMaxUploadBytes}}
	for _, enc := range []struct {
		name, ct string
		body     []byte
	}{{"json", "application/json", js}, {"multipart", ct, mp}} {
		b.Run(enc.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(raw)))
			for i := 0; i < b.N; i++ {
				if _, _, err := s.decode(jobKinds[0], enc.ct, enc.body); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestMultipartDecodeAllocs bounds what decoding a multipart submission of
// an N-byte image allocates at 2N plus a fixed allowance for the request,
// the reader's buffers and the options. Base64 inside JSON costs several
// times N, and so does reading the part by repeated growth, so a decoder
// that silently falls back to either fails here.
func TestMultipartDecodeAllocs(t *testing.T) {
	raw := benchImage()
	body, ct, err := EncodeSubmission(&SubmitRequest{Firmware: raw, Options: optbuild.Spec{Scan: true}})
	if err != nil {
		t.Fatal(err)
	}
	s := &Server{cfg: Config{MaxUploadBytes: DefaultMaxUploadBytes}}
	decode := func() {
		in, _, err := s.decode(jobKinds[0], ct, body)
		if err != nil || !bytes.Equal(in[0], raw) {
			t.Fatalf("decode: %v", err)
		}
	}
	decode()
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		decode()
	}
	runtime.ReadMemStats(&after)
	perOp := (after.TotalAlloc - before.TotalAlloc) / runs
	if bound := uint64(2*len(raw) + 32<<10); perOp > bound {
		t.Errorf("decoding a %d-byte image allocated %d bytes, bound %d", len(raw), perOp, bound)
	}
	t.Logf("%d-byte image: %d bytes allocated per decode", len(raw), perOp)
}
