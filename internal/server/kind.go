package server

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"mime"
	"mime/multipart"
	"net/http"
	"os"
	"slices"
	"strings"

	"fits/internal/modelcache"
	"fits/internal/optbuild"
)

// kind.go holds the job-kind table. fitsd serves three kinds of job — a
// single-image analysis, an evolution diff of two images and a cross-binary
// corpus scan — through one submit handler, one request decoder, one
// content identity, one journal format and one Runner. A kind contributes
// only what differs: its route, the named inputs of its request envelope
// and its default pipeline.

// jobKind is one row of the table.
type jobKind struct {
	// name is the kind as reported in JobStatus.Kind and journaled in
	// diskstore.Record.Kind; "" for plain analysis jobs.
	name string
	// route is the submit endpoint (POST).
	route string
	// noun names what the request carries in upload-limit errors.
	noun string
	// request returns an empty request envelope of the kind. Its named
	// inputs are given inline — base64 bytes in a JSON body, raw bytes in a
	// multipart/form-data body, one part per input named by its JSON field
	// — or as a path on the server's filesystem (JSON only); a kind with
	// one input also accepts the raw bytes as an application/octet-stream
	// body.
	request func() Request
	// run is the kind's default pipeline (see DefaultRunner).
	run func(ctx context.Context, in [][]byte, spec optbuild.Spec, env RunEnv) (*RunOutput, error)
}

var jobKinds = []*jobKind{
	{name: "", route: "/v1/jobs", noun: "firmware",
		request: func() Request { return new(SubmitRequest) }, run: runAnalysis},
	{name: KindDiff, route: "/v1/diffs", noun: "firmware",
		request: func() Request { return new(DiffSubmitRequest) }, run: runDiff},
	{name: KindCorpus, route: "/v1/corpora", noun: "corpus",
		request: func() Request { return new(CorpusSubmitRequest) }, run: runCorpus},
}

// label names the kind in request-decoding errors ("invalid diff request").
func (k *jobKind) label() string {
	if k.name == "" {
		return "job"
	}
	return k.name
}

// DefaultRunner runs the default pipeline of the job's kind: inference
// (plus an optional taint scan) for plain jobs, the incremental evolution
// diff for KindDiff, the cross-binary fixpoint for KindCorpus. in holds the
// submission's inputs in envelope order.
func DefaultRunner(ctx context.Context, kind string, in [][]byte, spec optbuild.Spec, env RunEnv) (*RunOutput, error) {
	for _, k := range jobKinds {
		if k.name == kind {
			return k.run(ctx, in, spec, env)
		}
	}
	return nil, fmt.Errorf("unknown job kind %q", kind)
}

// SubmissionSHA is the content address of a submission: JobStatus.SHA256
// and the key of the GET /v1/jobs?sha= index. A one-input submission is
// addressed by the hex SHA-256 of its bytes; a multi-input one (a diff) by
// the SHA-256 of its inputs' concatenated digests, so ("ab","c") and
// ("a","bc") cannot collide.
func SubmissionSHA(inputs ...[]byte) string {
	sums := make([]modelcache.Hash, len(inputs))
	for i, b := range inputs {
		sums[i] = modelcache.HashBytes(b)
	}
	return identity(sums)
}

// identity computes SubmissionSHA from the inputs' digests, which is all
// journal replay has of a finished job.
func identity(sums []modelcache.Hash) string {
	if len(sums) == 1 {
		return hex.EncodeToString(sums[0][:])
	}
	h := sha256.New()
	for _, s := range sums {
		h.Write(s[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// multipartAllowance is what a multipart submission may spend beyond its
// inputs' bytes: the options part and the framing of every part. It bounds
// the options part too.
const multipartAllowance = 64 << 10

// EncodeSubmission renders a submit envelope for the wire and returns the
// body with its Content-Type. An envelope whose inputs are all inline
// becomes multipart/form-data — an "options" part holding the options JSON,
// then one part of raw bytes per input, named by the input's JSON field —
// so the bytes travel without base64; any other envelope (a path, an empty
// input) is sent as JSON for the server to read or refuse.
func EncodeSubmission(req Request) ([]byte, string, error) {
	spec, inputs := req.envelope()
	size := 1 << 10 // options and framing
	for _, x := range inputs {
		if x.path != "" || len(x.inline) == 0 {
			b, err := json.Marshal(req)
			return b, "application/json", err
		}
		size += len(x.inline)
	}
	var buf bytes.Buffer
	buf.Grow(size)
	mw := multipart.NewWriter(&buf)
	w, err := mw.CreateFormField("options")
	if err != nil {
		return nil, "", err
	}
	if err := json.NewEncoder(w).Encode(spec); err != nil {
		return nil, "", err
	}
	for _, x := range inputs {
		w, err := mw.CreateFormFile(x.inlineField, x.inlineField)
		if err != nil {
			return nil, "", err
		}
		if _, err := w.Write(x.inline); err != nil {
			return nil, "", err
		}
	}
	if err := mw.Close(); err != nil {
		return nil, "", err
	}
	return buf.Bytes(), mw.FormDataContentType(), nil
}

// readSubmission decodes a request for kind k into its inputs, in
// envelope order, and its options. A multipart body may carry each input
// up to MaxUploadBytes; a JSON or octet-stream body is bounded as a whole.
func (s *Server) readSubmission(r *http.Request, k *jobKind) ([][]byte, optbuild.Spec, error) {
	req := k.request()
	spec, inputs := req.envelope()
	limit := s.cfg.MaxUploadBytes
	ct := r.Header.Get("Content-Type")
	// A malformed parameter still yields the media type, with no boundary,
	// which readMultipart refuses.
	if mt, params, _ := mime.ParseMediaType(ct); mt == "multipart/form-data" {
		bodyLimit := int64(math.MaxInt64)
		if n := int64(len(inputs)); limit <= (bodyLimit-multipartAllowance)/n {
			bodyLimit = n*limit + multipartAllowance
		}
		body := http.MaxBytesReader(nil, r.Body, bodyLimit)
		defer body.Close()
		in, spec, err := readMultipart(body, params["boundary"], inputs, limit, r.ContentLength)
		if err != nil {
			return nil, spec, fmt.Errorf("invalid %s request: %w", k.label(), err)
		}
		return in, spec, nil
	}
	body := http.MaxBytesReader(nil, r.Body, limit)
	defer body.Close()
	if len(inputs) == 1 && !strings.HasPrefix(ct, "application/json") {
		raw, err := io.ReadAll(body)
		if err != nil {
			return nil, spec, err
		}
		if len(raw) == 0 {
			return nil, spec, fmt.Errorf("empty %s body", k.noun)
		}
		return [][]byte{raw}, spec, nil
	}
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(req); err != nil {
		return nil, spec, fmt.Errorf("invalid %s request: %w", k.label(), err)
	}
	spec, inputs = req.envelope()
	in := make([][]byte, len(inputs))
	for i, x := range inputs {
		what := strings.ReplaceAll(x.inlineField, "_", " ")
		switch {
		case len(x.inline) > 0 && x.path != "":
			return nil, spec, fmt.Errorf("set exactly one of %q and %q", x.inlineField, x.pathField)
		case len(x.inline) > 0:
			in[i] = x.inline
		case x.path != "":
			raw, err := s.readPath(x.path, what)
			if err != nil {
				return nil, spec, err
			}
			in[i] = raw
		default:
			return nil, spec, fmt.Errorf("set one of %q (base64 bytes) and %q", x.inlineField, x.pathField)
		}
	}
	return in, spec, nil
}

// readMultipart decodes the parts of a multipart submission whose envelope
// has the given inputs: at most one "options" part, decoded like the JSON
// envelope's options and at most multipartAllowance bytes, and exactly one
// non-empty part per input, named by its JSON field and at most limit
// bytes. Parts may come in any order; any other part is refused.
func readMultipart(body io.Reader, boundary string, inputs []input, limit, sizeHint int64) ([][]byte, optbuild.Spec, error) {
	var spec optbuild.Spec
	if boundary == "" {
		return nil, spec, errors.New("multipart body without a boundary")
	}
	in := make([][]byte, len(inputs))
	sawOptions := false
	mr := multipart.NewReader(body, boundary)
	for {
		p, err := mr.NextPart()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, spec, err
		}
		name := p.FormName()
		if name == "options" {
			if sawOptions {
				return nil, spec, errors.New(`duplicate part "options"`)
			}
			sawOptions = true
			dec := json.NewDecoder(io.LimitReader(p, multipartAllowance))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&spec); err != nil {
				return nil, spec, fmt.Errorf("options: %w", err)
			}
			continue
		}
		i := slices.IndexFunc(inputs, func(x input) bool { return x.inlineField == name })
		switch {
		case i < 0:
			return nil, spec, fmt.Errorf("unknown part %q", name)
		case in[i] != nil:
			return nil, spec, fmt.Errorf("duplicate part %q", name)
		}
		if in[i], err = readPart(p, limit, sizeHint); err != nil {
			return nil, spec, err
		}
		if len(in[i]) == 0 {
			return nil, spec, fmt.Errorf("empty part %q", name)
		}
	}
	for i, x := range inputs {
		if in[i] == nil {
			return nil, spec, fmt.Errorf("missing part %q", x.inlineField)
		}
	}
	return in, spec, nil
}

// readPart reads one input part, refusing more than limit bytes with the
// *http.MaxBytesError the submit handler answers with 413. The buffer
// doubles from 64 KiB but never past sizeHint, the request's declared
// length (an upper bound of any part), so an image costs under twice its
// size in allocations, and a false Content-Length earns no more memory than
// the bytes actually sent.
func readPart(p io.Reader, limit, sizeHint int64) ([]byte, error) {
	buf := make([]byte, 0, min(64<<10, limit+1))
	for {
		if len(buf) == cap(buf) {
			next := min(2*int64(cap(buf)), limit+1)
			if sizeHint > int64(cap(buf)) {
				next = min(next, sizeHint)
			}
			buf = append(make([]byte, 0, next), buf...)
		}
		n, err := p.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if int64(len(buf)) > limit {
			return nil, &http.MaxBytesError{Limit: limit}
		}
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return nil, err
		}
	}
}

// readPath reads an input named by a server-side path, never more than
// MaxUploadBytes+1 bytes of it, so a path to a huge or endless file
// (/dev/zero) is refused like an oversized upload instead of exhausting
// memory.
func (s *Server) readPath(path, what string) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("reading %s path: %v", what, err)
	}
	defer f.Close()
	raw, err := io.ReadAll(io.LimitReader(f, s.cfg.MaxUploadBytes+1))
	if err != nil {
		return nil, fmt.Errorf("reading %s path: %v", what, err)
	}
	if int64(len(raw)) > s.cfg.MaxUploadBytes {
		return nil, fmt.Errorf("%s at %s exceeds the %d byte limit", what, path, s.cfg.MaxUploadBytes)
	}
	return raw, nil
}

// handleSubmit accepts a submission of kind k. Every kind shares the
// queue, result store, backpressure, durability and drain.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request, k *jobKind) {
	if s.isDraining() {
		writeErr(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	in, spec, err := s.readSubmission(r, k)
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			writeErr(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("%s exceeds the %d byte upload limit", k.noun, mbe.Limit))
			return
		}
		writeErr(w, http.StatusBadRequest, err.Error())
		return
	}
	if err := spec.Normalize(); err != nil {
		writeErr(w, http.StatusBadRequest, err.Error())
		return
	}
	sums := make([]modelcache.Hash, len(in))
	size := 0
	for i, b := range in {
		sums[i] = modelcache.HashBytes(b)
		size += len(b)
	}
	seq := s.seq.Add(1)
	j := &Job{
		id:        fmt.Sprintf("j%06d", seq),
		seq:       seq,
		sha:       identity(sums),
		size:      size,
		kind:      k.name,
		spec:      spec,
		state:     StateQueued,
		in:        in,
		submitted: s.now(),
	}
	if s.persist != nil {
		j.diskKey = jobKey(k.name, spec, sums...)
		if payload := s.diskLookup(j.diskKey); payload != nil {
			s.completeFromDisk(w, j, payload, sums)
			return
		}
	}
	s.accept(w, j, in, sums)
}
