// End-to-end tests of the POST /v1/corpora surface: the corpus job
// lifecycle over httptest through the typed client, byte-identical results
// on resubmission matching a direct fits.XScan, per-job progress lines, the
// fitsd_corpus_* metrics, and the 4xx surface of the envelope.
package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"fits"
	"fits/client"
	"fits/internal/optbuild"
	"fits/internal/server"
	"fits/internal/synth"
)

// samplePackedCorpus memoizes one packed multi-binary corpus plus its
// directly computed cross-mode report JSON, the bytes the server must
// reproduce.
var samplePackedCorpus = sync.OnceValue(func() (out struct {
	Packed []byte
	Direct []byte
}) {
	x, err := synth.GenerateXCorpus(1)
	if err != nil {
		panic(err)
	}
	files := make([]fits.CorpusFile, len(x.Files))
	for i, f := range x.Files {
		files[i] = fits.CorpusFile{Path: f.Path, Data: f.Data}
	}
	out.Packed = fits.PackCorpus(files)
	rep, err := fits.XScan(files, fits.XScanOptions{StringFilter: true})
	if err != nil {
		panic(err)
	}
	if out.Direct, err = json.Marshal(rep); err != nil {
		panic(err)
	}
	return out
})

// TestCorpusJobLifecycle drives the real corpus pipeline end to end twice:
// a cross-binary report the first time, byte-identical result JSON on
// resubmission, and the corpus metrics visible on /metrics.
func TestCorpusJobLifecycle(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline; skipped in -short")
	}
	cache := fits.NewCache(0, 0)
	_, c := newTestService(t, server.Config{Workers: 2, Cache: cache})
	ctx := context.Background()
	sample := samplePackedCorpus()

	sub, err := c.SubmitCorpus(ctx, sample.Packed, optbuild.Spec{})
	if err != nil {
		t.Fatal(err)
	}
	st, err := c.Wait(ctx, sub.ID, 20*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != server.StateDone {
		t.Fatalf("corpus job ended %s: %s", st.State, st.Error)
	}
	if st.Kind != server.KindCorpus {
		t.Errorf("job kind = %q, want %q", st.Kind, server.KindCorpus)
	}
	res1, err := c.Result(ctx, sub.ID)
	if err != nil {
		t.Fatal(err)
	}
	var rep fits.CorpusReport
	if err := json.Unmarshal(res1, &rep); err != nil {
		t.Fatalf("corpus result not valid JSON: %v", err)
	}
	if len(rep.Binaries) == 0 || rep.CrossHit == 0 {
		t.Fatalf("empty corpus result: binaries=%d cross=%d", len(rep.Binaries), rep.CrossHit)
	}
	// The service result is the library result, byte for byte.
	if !bytes.Equal(res1, sample.Direct) {
		t.Errorf("service result differs from direct XScan:\nservice %s\ndirect  %s", res1, sample.Direct)
	}

	sub2, err := c.SubmitCorpus(ctx, sample.Packed, optbuild.Spec{})
	if err != nil {
		t.Fatal(err)
	}
	st2, err := c.Wait(ctx, sub2.ID, 20*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if st2.State != server.StateDone {
		t.Fatalf("second corpus job ended %s: %s", st2.State, st2.Error)
	}
	if st2.Progress != "" {
		t.Errorf("terminal job still reports progress %q", st2.Progress)
	}
	res2, err := c.Result(ctx, sub2.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res1, res2) {
		t.Errorf("corpus results diverged:\nfirst  %s\nsecond %s", res1, res2)
	}

	m, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"fitsd_corpus_jobs_total 2",
		"fitsd_corpus_binaries_total 10",
		"fitsd_corpus_cross_alerts_total 8",
		"fitsd_corpus_rounds_count 2",
		"fitsd_jobs_completed_total 2",
	} {
		if !strings.Contains(m, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestCorpusModeOption verifies the xmode option reaches the pipeline: a
// CTS-seeded corpus job reports no cross-binary alerts, and an invalid
// mode is rejected with 400 at submission time.
func TestCorpusModeOption(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline; skipped in -short")
	}
	_, c := newTestService(t, server.Config{Workers: 1})
	ctx := context.Background()
	sample := samplePackedCorpus()

	sub, err := c.SubmitCorpus(ctx, sample.Packed, optbuild.Spec{XMode: "cts"})
	if err != nil {
		t.Fatal(err)
	}
	st, err := c.Wait(ctx, sub.ID, 20*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != server.StateDone {
		t.Fatalf("cts corpus job ended %s: %s", st.State, st.Error)
	}
	res, err := c.Result(ctx, sub.ID)
	if err != nil {
		t.Fatal(err)
	}
	var rep fits.CorpusReport
	if err := json.Unmarshal(res, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Mode != "cts" || rep.CrossHit != 0 || rep.Rounds != 1 {
		t.Errorf("cts report: mode=%s cross=%d rounds=%d, want cts/0/1", rep.Mode, rep.CrossHit, rep.Rounds)
	}

	var apiErr *client.APIError
	if _, err := c.SubmitCorpus(ctx, sample.Packed, optbuild.Spec{XMode: "quantum"}); !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusBadRequest {
		t.Errorf("bad xmode: %v", err)
	}
}

// TestCorpusProgressStream verifies the runner's progress lines surface in
// the running job's status and that corpus jobs share the queue with plain
// jobs.
func TestCorpusProgressStream(t *testing.T) {
	r := newStubRunner()
	progressed := make(chan struct{})
	runner := func(ctx context.Context, kind string, in [][]byte, spec optbuild.Spec, env server.RunEnv) (*server.RunOutput, error) {
		if kind == server.KindCorpus {
			env.Progress("round 1: scanning")
			close(progressed)
		}
		return r.run(ctx, kind, in, spec, env)
	}
	_, c := newTestService(t, server.Config{Workers: 1, Runner: runner})
	ctx := context.Background()

	sub, err := c.SubmitCorpus(ctx, []byte("packed-corpus"), optbuild.Spec{})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-progressed:
	case <-time.After(5 * time.Second):
		t.Fatal("corpus runner never ran")
	}
	r.waitStarted(t)
	st, err := c.Job(ctx, sub.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != server.StateRunning || st.Progress != "round 1: scanning" {
		t.Errorf("running status = %s progress %q, want running with the progress line", st.State, st.Progress)
	}
	// A plain job behind it drains from the same queue.
	if _, err := c.Submit(ctx, []byte("fw"), optbuild.Spec{}); err != nil {
		t.Fatal(err)
	}
	close(r.release)
	st, err = c.Wait(ctx, sub.ID, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != server.StateDone {
		t.Fatalf("corpus job ended %s: %s", st.State, st.Error)
	}
	if st.Progress != "" {
		t.Errorf("done job still reports progress %q", st.Progress)
	}
}

// TestCorpusBadRequests covers the 4xx surface of the corpus envelope.
func TestCorpusBadRequests(t *testing.T) {
	r := newStubRunner()
	close(r.release)
	_, c := newTestService(t, server.Config{Workers: 1, Runner: r.run})
	ctx := context.Background()
	var apiErr *client.APIError

	// No corpus at all.
	if _, err := c.SubmitCorpus(ctx, nil, optbuild.Spec{}); !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusBadRequest {
		t.Errorf("missing corpus: %v", err)
	}
	// Unreadable server-side path.
	if _, err := c.SubmitCorpusPath(ctx, "/nonexistent/corpus.fw", optbuild.Spec{}); !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusBadRequest {
		t.Errorf("unreadable path: %v", err)
	}
}
