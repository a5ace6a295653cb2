// End-to-end tests of the POST /v1/diffs surface: the diff job lifecycle
// over httptest through the typed client, byte-identical results on
// resubmission with model-cache reuse, cancel mid-diff, the diff metrics,
// and the 4xx surface of the two-sided submission envelope.
package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
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

// samplePair memoizes one synthetic version chain step (old, new) for the
// diff pipeline tests.
var samplePair = sync.OnceValue(func() [2][]byte {
	c, err := synth.GenerateChain(synth.ChainDataset()[0])
	if err != nil {
		panic(err)
	}
	return [2][]byte{c.Versions[0].Packed, c.Versions[1].Packed}
})

// TestDiffJobLifecycle drives the real evolution pipeline end to end twice:
// a valid churn report the first time, byte-identical result JSON on
// resubmission with the analysis served from the shared model cache, and
// the diff metrics visible on /metrics.
func TestDiffJobLifecycle(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline; skipped in -short")
	}
	cache := fits.NewCache(0, 0)
	_, c := newTestService(t, server.Config{Workers: 2, Cache: cache})
	ctx := context.Background()
	pair := samplePair()

	sub, err := c.SubmitDiff(ctx, pair[0], pair[1], optbuild.Spec{})
	if err != nil {
		t.Fatal(err)
	}
	st, err := c.Wait(ctx, sub.ID, 20*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != server.StateDone {
		t.Fatalf("diff job ended %s: %s", st.State, st.Error)
	}
	if st.Kind != server.KindDiff {
		t.Errorf("job kind = %q, want %q", st.Kind, server.KindDiff)
	}
	res1, err := c.Result(ctx, sub.ID)
	if err != nil {
		t.Fatal(err)
	}
	var dr server.DiffJobResult
	if err := json.Unmarshal(res1, &dr); err != nil {
		t.Fatalf("diff result not valid JSON: %v", err)
	}
	if len(dr.Targets) == 0 || dr.TotalFuncs == 0 {
		t.Fatalf("empty diff result: %+v", dr)
	}
	if dr.ReuseRatio < 0.9 {
		t.Errorf("reuse ratio %.2f (%d/%d), want >= 0.9", dr.ReuseRatio, dr.ReusedFuncs, dr.TotalFuncs)
	}
	if dr.AlertsPersisted == 0 {
		t.Error("diff reports no persisted alerts")
	}

	// Resubmit the identical pair: byte-identical result, models served
	// from the shared cache.
	sub2, err := c.SubmitDiff(ctx, pair[0], pair[1], optbuild.Spec{})
	if err != nil {
		t.Fatal(err)
	}
	st2, err := c.Wait(ctx, sub2.ID, 20*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if st2.State != server.StateDone {
		t.Fatalf("second diff ended %s: %s", st2.State, st2.Error)
	}
	res2, err := c.Result(ctx, sub2.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res1, res2) {
		t.Errorf("diff results diverged:\nfirst  %s\nsecond %s", res1, res2)
	}
	if st2.Cache == nil || st2.Cache.Reused == 0 {
		t.Errorf("second diff reused no models: %+v", st2.Cache)
	}

	// The reuse-ratio gauge and per-stage histograms are visible.
	m, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"fits_diff_reuse_ratio 0.9",
		"fitsd_diff_analyze_old_seconds_count 2",
		"fitsd_diff_analyze_new_seconds_count 2",
		"fitsd_diff_scan_new_seconds_count 2",
		"fitsd_diff_align_seconds_count 2",
		"fitsd_jobs_completed_total 2",
	} {
		if !strings.Contains(m, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestDiffCancelRunning cancels a diff mid-flight via context propagation.
func TestDiffCancelRunning(t *testing.T) {
	r := newStubRunner()
	_, c := newTestService(t, server.Config{Workers: 1, Runner: r.run})
	ctx := context.Background()

	sub, err := c.SubmitDiff(ctx, []byte("fw-old"), []byte("fw-new"), optbuild.Spec{})
	if err != nil {
		t.Fatal(err)
	}
	r.waitStarted(t)
	if _, err := c.Cancel(ctx, sub.ID); err != nil {
		t.Fatal(err)
	}
	st, err := c.Wait(ctx, sub.ID, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != server.StateCanceled {
		t.Errorf("state = %s, want canceled", st.State)
	}
	m, _ := c.Metrics(ctx)
	if !strings.Contains(m, "fitsd_jobs_canceled_total 1") {
		t.Error("canceled counter not incremented")
	}
}

// TestDiffSharesQueueWithJobs verifies diff and analysis jobs drain the
// same bounded queue: a diff holding the one worker backpressures a plain
// submission.
func TestDiffSharesQueueWithJobs(t *testing.T) {
	r := newStubRunner()
	_, c := newTestService(t, server.Config{
		Workers: 1, QueueDepth: 1, Runner: r.run,
	})
	ctx := context.Background()

	if _, err := c.SubmitDiff(ctx, []byte("a"), []byte("b"), optbuild.Spec{}); err != nil {
		t.Fatal(err)
	}
	r.waitStarted(t)
	if _, err := c.Submit(ctx, []byte("fw"), optbuild.Spec{}); err != nil {
		t.Fatal(err) // fills the shared queue
	}
	if _, err := c.SubmitDiff(ctx, []byte("c"), []byte("d"), optbuild.Spec{}); !errors.Is(err, client.ErrQueueFull) {
		t.Fatalf("overflow diff submit: err = %v, want ErrQueueFull", err)
	}
	close(r.release)
}

// TestDiffBadRequests covers the 4xx surface of the two-sided envelope.
func TestDiffBadRequests(t *testing.T) {
	r := newStubRunner()
	close(r.release)
	srv := mustServer(t, server.Config{Workers: 1, Runner: r.run})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	}()
	c := client.New(ts.URL, ts.Client())
	ctx := context.Background()
	var apiErr *client.APIError

	// A side given both ways.
	body, _ := json.Marshal(server.DiffSubmitRequest{
		OldFirmware: []byte("fw"), OldPath: "/tmp/fw", NewFirmware: []byte("fw2"),
	})
	resp, err := ts.Client().Post(ts.URL+"/v1/diffs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("both firmware and path: status %d, want 400", resp.StatusCode)
	}
	// A side not given at all.
	if _, err := c.SubmitDiff(ctx, []byte("fw"), nil, optbuild.Spec{}); !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusBadRequest {
		t.Errorf("missing new side: %v", err)
	}
	// Unknown engine.
	if _, err := c.SubmitDiff(ctx, []byte("a"), []byte("b"), optbuild.Spec{Engine: "quantum"}); !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusBadRequest {
		t.Errorf("bad engine: %v", err)
	}
	// Unreadable server-side path.
	if _, err := c.SubmitDiffPaths(ctx, "/nonexistent/old.fw", "/nonexistent/new.fw", optbuild.Spec{}); !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusBadRequest {
		t.Errorf("unreadable path: %v", err)
	}
}
