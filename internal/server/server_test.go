// End-to-end tests of the fitsd service: the full job lifecycle over
// httptest through the typed client, 429 backpressure, cancellation,
// graceful drain, and concurrent submissions sharing one model cache.
// They live in an external test package so they can use fits/client
// (which itself imports this package).
package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
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

// sampleFirmware memoizes one synthetic firmware image for the pipeline
// tests.
var sampleFirmware = sync.OnceValue(func() []byte {
	sample, err := synth.Generate(synth.Dataset()[0])
	if err != nil {
		panic(err)
	}
	return sample.Packed
})

// stubRunner is a controllable pipeline for every job kind: it signals the
// kind when a job starts and blocks until released or canceled.
type stubRunner struct {
	started chan string
	release chan struct{}
}

func newStubRunner() *stubRunner {
	return &stubRunner{started: make(chan string, 64), release: make(chan struct{})}
}

func (r *stubRunner) run(ctx context.Context, kind string, in [][]byte, spec optbuild.Spec, env server.RunEnv) (*server.RunOutput, error) {
	r.started <- kind
	select {
	case <-r.release:
		return &server.RunOutput{ResultJSON: []byte(`{"stub":true}`)}, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

func (r *stubRunner) waitStarted(t *testing.T) {
	t.Helper()
	select {
	case <-r.started:
	case <-time.After(5 * time.Second):
		t.Fatal("no job started within 5s")
	}
}

// mustServer builds a server or fails the test.
func mustServer(t *testing.T, cfg server.Config) *server.Server {
	t.Helper()
	srv, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

func newTestService(t *testing.T, cfg server.Config) (*server.Server, *client.Client) {
	t.Helper()
	srv := mustServer(t, cfg)
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		ts.Close()
	})
	return srv, client.New(ts.URL, ts.Client())
}

// TestJobLifecycle drives the real pipeline end to end twice and checks
// the acceptance bar: identical result JSON on resubmission, with the
// second run served from the shared model cache.
func TestJobLifecycle(t *testing.T) {
	cache := fits.NewCache(0, 0)
	_, c := newTestService(t, server.Config{Workers: 2, Cache: cache})
	ctx := context.Background()
	fw := sampleFirmware()

	spec := optbuild.Spec{Scan: true, SeedITS: true}
	sub, err := c.Submit(ctx, fw, spec)
	if err != nil {
		t.Fatal(err)
	}
	if sub.State != server.StateQueued || sub.ID == "" {
		t.Fatalf("submit response: %+v", sub)
	}
	st, err := c.Wait(ctx, sub.ID, 20*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != server.StateDone {
		t.Fatalf("job ended %s: %s", st.State, st.Error)
	}
	res1, err := c.Result(ctx, sub.ID)
	if err != nil {
		t.Fatal(err)
	}
	var jr server.JobResult
	if err := json.Unmarshal(res1, &jr); err != nil {
		t.Fatalf("result not valid JSON: %v", err)
	}
	if len(jr.Targets) == 0 {
		t.Fatal("result has no targets")
	}
	for _, tr := range jr.Targets {
		if len(tr.Candidates) == 0 {
			t.Errorf("target %s has no candidates", tr.Path)
		}
	}

	// Resubmit the identical image: byte-identical result, cache reuse.
	sub2, err := c.Submit(ctx, fw, spec)
	if err != nil {
		t.Fatal(err)
	}
	st2, err := c.Wait(ctx, sub2.ID, 20*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if st2.State != server.StateDone {
		t.Fatalf("second job ended %s: %s", st2.State, st2.Error)
	}
	res2, err := c.Result(ctx, sub2.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res1, res2) {
		t.Errorf("results diverged:\nfirst  %s\nsecond %s", res1, res2)
	}
	if st2.Cache == nil || st2.Cache.Reused == 0 {
		t.Errorf("second run reused no models: %+v", st2.Cache)
	}
	if cache.Stats().Hits == 0 {
		t.Error("shared cache recorded no hits")
	}

	// The job list shows both, oldest first.
	jobs, err := c.Jobs(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 2 || jobs[0].ID != sub.ID || jobs[1].ID != sub2.ID {
		t.Errorf("job list: %+v", jobs)
	}

	// Metrics report the completions and the cache hits.
	m, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"fitsd_jobs_completed_total 2",
		"fitsd_jobs_accepted_total 2",
		"fitsd_model_cache_hits_total",
		"fitsd_job_duration_seconds_count 2",
		// Per-stage pipeline histograms, fed by each job's stage timer.
		// Both runs decode and infer; the cache-served rerun may skip
		// lifting, so only the first run is guaranteed to observe lift.
		"fitsd_stage_decode_seconds_count 2",
		"fitsd_stage_infer_seconds_count 2",
		"fitsd_stage_lift_seconds_count 1",
	} {
		if !strings.Contains(m, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestBackpressure fills the queue and expects 429 + Retry-After rather
// than unbounded buffering.
func TestBackpressure(t *testing.T) {
	r := newStubRunner()
	_, c := newTestService(t, server.Config{Workers: 1, QueueDepth: 1, Runner: r.run})
	ctx := context.Background()

	if _, err := c.Submit(ctx, []byte("fw-1"), optbuild.Spec{}); err != nil {
		t.Fatal(err)
	}
	r.waitStarted(t) // worker holds job 1; queue is empty
	if _, err := c.Submit(ctx, []byte("fw-2"), optbuild.Spec{}); err != nil {
		t.Fatal(err) // fills the queue
	}
	_, err := c.Submit(ctx, []byte("fw-3"), optbuild.Spec{})
	if !errors.Is(err, client.ErrQueueFull) {
		t.Fatalf("overflow submit: err = %v, want ErrQueueFull", err)
	}

	// The raw response carries Retry-After for generic HTTP clients.
	m, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(m, "fitsd_jobs_rejected_total 1") {
		t.Error("rejected counter not incremented")
	}
	close(r.release)
}

func TestBackpressureRetryAfterHeader(t *testing.T) {
	r := newStubRunner()
	srv := mustServer(t, server.Config{Workers: 1, QueueDepth: 1, Runner: r.run})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer func() {
		close(r.release)
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	}()

	post := func() *http.Response {
		resp, err := ts.Client().Post(ts.URL+"/v1/jobs", "application/octet-stream",
			strings.NewReader("firmware-bytes"))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}
	post()
	r.waitStarted(t)
	post()
	resp := post()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After header")
	}
}

// TestCancelQueued cancels a job the worker has not picked up yet.
func TestCancelQueued(t *testing.T) {
	r := newStubRunner()
	_, c := newTestService(t, server.Config{Workers: 1, QueueDepth: 4, Runner: r.run})
	ctx := context.Background()

	if _, err := c.Submit(ctx, []byte("fw-run"), optbuild.Spec{}); err != nil {
		t.Fatal(err)
	}
	r.waitStarted(t)
	sub, err := c.Submit(ctx, []byte("fw-queued"), optbuild.Spec{})
	if err != nil {
		t.Fatal(err)
	}
	st, err := c.Cancel(ctx, sub.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != server.StateCanceled {
		t.Errorf("state after cancel = %s", st.State)
	}
	// Result of a canceled job is a conflict.
	if _, err := c.Result(ctx, sub.ID); err == nil {
		t.Error("result of canceled job did not error")
	}
	close(r.release)
}

// TestCancelRunning cancels mid-flight via context propagation.
func TestCancelRunning(t *testing.T) {
	r := newStubRunner()
	_, c := newTestService(t, server.Config{Workers: 1, Runner: r.run})
	ctx := context.Background()

	sub, err := c.Submit(ctx, []byte("fw"), optbuild.Spec{})
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

// TestJobTimeout lets the server's per-job limit expire a stuck job.
func TestJobTimeout(t *testing.T) {
	r := newStubRunner()
	_, c := newTestService(t, server.Config{
		Workers: 1, JobTimeout: 30 * time.Millisecond, Runner: r.run,
	})
	ctx := context.Background()
	sub, err := c.Submit(ctx, []byte("fw"), optbuild.Spec{})
	if err != nil {
		t.Fatal(err)
	}
	st, err := c.Wait(ctx, sub.ID, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != server.StateFailed || !strings.Contains(st.Error, "timeout") {
		t.Errorf("state = %s (%q), want failed with timeout", st.State, st.Error)
	}
}

// TestGracefulDrain submits one running and one queued job, shuts down,
// and expects: the in-flight job finishes, the queued one is canceled, and
// new submissions get 503.
func TestGracefulDrain(t *testing.T) {
	r := newStubRunner()
	srv := mustServer(t, server.Config{Workers: 1, QueueDepth: 4, Runner: r.run})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	c := client.New(ts.URL, ts.Client())
	ctx := context.Background()

	running, err := c.Submit(ctx, []byte("fw-running"), optbuild.Spec{})
	if err != nil {
		t.Fatal(err)
	}
	r.waitStarted(t)
	queued, err := c.Submit(ctx, []byte("fw-queued"), optbuild.Spec{})
	if err != nil {
		t.Fatal(err)
	}

	drainDone := make(chan error, 1)
	go func() {
		sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		drainDone <- srv.Shutdown(sctx)
	}()

	// Intake must refuse while draining; let it flip first.
	deadline := time.Now().Add(5 * time.Second)
	for {
		h, err := c.Health(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if h.Draining {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("server never started draining")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if _, err := c.Submit(ctx, []byte("fw-late"), optbuild.Spec{}); err == nil {
		t.Error("submission accepted while draining")
	}

	// Release the in-flight job: the drain completes cleanly.
	close(r.release)
	if err := <-drainDone; err != nil {
		t.Fatalf("drain returned %v", err)
	}
	if st, err := c.Job(ctx, running.ID); err != nil || st.State != server.StateDone {
		t.Errorf("in-flight job: %+v, %v (want done)", st, err)
	}
	if st, err := c.Job(ctx, queued.ID); err != nil || st.State != server.StateCanceled {
		t.Errorf("queued job: %+v, %v (want canceled)", st, err)
	}
}

// TestDrainDeadlineCancelsInFlight never releases the runner: the drain
// deadline must hard-cancel the job and still return.
func TestDrainDeadlineCancelsInFlight(t *testing.T) {
	r := newStubRunner()
	srv := mustServer(t, server.Config{Workers: 1, Runner: r.run})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	c := client.New(ts.URL, ts.Client())
	ctx := context.Background()

	sub, err := c.Submit(ctx, []byte("fw-stuck"), optbuild.Spec{})
	if err != nil {
		t.Fatal(err)
	}
	r.waitStarted(t)
	sctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := srv.Shutdown(sctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown = %v, want DeadlineExceeded", err)
	}
	if st, err := c.Job(ctx, sub.ID); err != nil || st.State != server.StateCanceled {
		t.Errorf("stuck job: %+v, %v (want canceled)", st, err)
	}
}

// TestConcurrentSubmitsSharedCache hammers the real pipeline from many
// goroutines against one cache; under -race this is the data-race gate,
// and every result must be byte-identical.
func TestConcurrentSubmitsSharedCache(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline; skipped in -short")
	}
	cache := fits.NewCache(0, 0)
	_, c := newTestService(t, server.Config{Workers: 4, QueueDepth: 32, Cache: cache})
	ctx := context.Background()
	fw := sampleFirmware()

	const n = 6
	ids := make([]string, n)
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sub, err := c.Submit(ctx, fw, optbuild.Spec{SeedITS: true, Scan: true})
			if err != nil {
				errs[i] = err
				return
			}
			ids[i] = sub.ID
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	var first []byte
	for i, id := range ids {
		st, err := c.Wait(ctx, id, 20*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != server.StateDone {
			t.Fatalf("job %s: %s (%s)", id, st.State, st.Error)
		}
		res, err := c.Result(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = res
		} else if !bytes.Equal(first, res) {
			t.Errorf("job %s result diverged from job %s", id, ids[0])
		}
	}
}

// TestBadRequests covers the 4xx surface.
func TestBadRequests(t *testing.T) {
	r := newStubRunner()
	close(r.release)
	srv := mustServer(t, server.Config{Workers: 1, Runner: r.run, MaxUploadBytes: 64})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	}()
	c := client.New(ts.URL, ts.Client())
	ctx := context.Background()

	// Unknown engine name.
	_, err := c.Submit(ctx, []byte("fw"), optbuild.Spec{Engine: "quantum"})
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusBadRequest {
		t.Errorf("bad engine: %v", err)
	}
	// Empty body.
	resp, err := ts.Client().Post(ts.URL+"/v1/jobs", "application/octet-stream", strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty body: status %d", resp.StatusCode)
	}
	// Oversized upload.
	_, err = c.Submit(ctx, bytes.Repeat([]byte("x"), 4096), optbuild.Spec{})
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized upload: %v", err)
	}
	// Unknown job.
	if _, err := c.Job(ctx, "j999999"); !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job: %v", err)
	}
}

// TestPathReadsBounded: an input named by a server-side path is read only
// up to the upload limit, so a path to an endless file is refused with 400
// in moments instead of exhausting the daemon's memory. Every kind and
// every side of a diff goes through the same bounded read.
func TestPathReadsBounded(t *testing.T) {
	if _, err := os.Stat("/dev/zero"); err != nil {
		t.Skip("no /dev/zero on this system")
	}
	r := newStubRunner()
	close(r.release)
	srv := mustServer(t, server.Config{Workers: 1, Runner: r.run, MaxUploadBytes: 64})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	}()
	for _, tc := range []struct{ route, body string }{
		{"/v1/jobs", `{"path":"/dev/zero"}`},
		{"/v1/corpora", `{"path":"/dev/zero"}`},
		{"/v1/diffs", `{"old_path":"/dev/zero","new_firmware":"bmV3"}`},
		{"/v1/diffs", `{"old_firmware":"b2xk","new_path":"/dev/zero"}`},
	} {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+tc.route, strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := ts.Client().Do(req)
		if err != nil {
			cancel()
			t.Fatalf("%s %s: %v", tc.route, tc.body, err)
		}
		var e server.ErrorResponse
		json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		cancel()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(e.Error, "exceeds the 64 byte limit") {
			t.Errorf("%s %s: status %d %q, want 400 naming the limit", tc.route, tc.body, resp.StatusCode, e.Error)
		}
	}
}
