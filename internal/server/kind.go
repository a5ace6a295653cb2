package server

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
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
	// inputs are given inline (base64 bytes) or as a path on the server's
	// filesystem; a kind with one input also accepts the raw bytes as an
	// application/octet-stream body.
	request func() request
	// run is the kind's default pipeline (see DefaultRunner).
	run func(ctx context.Context, in [][]byte, spec optbuild.Spec, env RunEnv) (*RunOutput, error)
}

var jobKinds = []*jobKind{
	{name: "", route: "/v1/jobs", noun: "firmware",
		request: func() request { return new(SubmitRequest) }, run: runAnalysis},
	{name: KindDiff, route: "/v1/diffs", noun: "firmware",
		request: func() request { return new(DiffSubmitRequest) }, run: runDiff},
	{name: KindCorpus, route: "/v1/corpora", noun: "corpus",
		request: func() request { return new(CorpusSubmitRequest) }, run: runCorpus},
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

// readSubmission decodes a request for kind k into its inputs, in
// envelope order, and its options.
func (s *Server) readSubmission(r *http.Request, k *jobKind) ([][]byte, optbuild.Spec, error) {
	body := http.MaxBytesReader(nil, r.Body, s.cfg.MaxUploadBytes)
	defer body.Close()
	req := k.request()
	spec, inputs := req.envelope()
	if len(inputs) == 1 && !strings.HasPrefix(r.Header.Get("Content-Type"), "application/json") {
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
	s.accept(w, j, in)
}
