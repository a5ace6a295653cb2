package client

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"fits/internal/optbuild"
	"fits/internal/server"
)

// testPolicy returns a retry policy whose sleeps are recorded instead of
// waited out, and whose jitter is the identity so delays are exact.
func testPolicy(attempts int, slept *[]time.Duration) RetryPolicy {
	p := RetryPolicy{
		MaxAttempts: attempts,
		BaseDelay:   100 * time.Millisecond,
		MaxDelay:    800 * time.Millisecond,
	}
	p.jitter = func(d time.Duration) time.Duration { return d }
	p.sleep = func(ctx context.Context, d time.Duration) error {
		*slept = append(*slept, d)
		return ctx.Err()
	}
	return p
}

func specWithTopK(k int) optbuild.Spec {
	s := optbuild.Spec{TopK: k}
	if err := s.Normalize(); err != nil {
		panic(err)
	}
	return s
}

// TestRetryHonorsRetryAfter: a 429 with Retry-After must be retried
// after exactly the advertised delay, not the exponential schedule.
func TestRetryHonorsRetryAfter(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) < 3 {
			w.Header().Set("Retry-After", "2")
			w.WriteHeader(http.StatusTooManyRequests)
			fmt.Fprint(w, `{"error":"job queue is full"}`)
			return
		}
		w.WriteHeader(http.StatusAccepted)
		fmt.Fprint(w, `{"id":"j000001","location":"/v1/jobs/j000001","state":"queued"}`)
	}))
	defer ts.Close()

	var slept []time.Duration
	c := New(ts.URL, nil).WithRetry(testPolicy(5, &slept))
	resp, err := c.Submit(context.Background(), []byte("fw"), optbuild.Spec{})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if resp.ID != "j000001" {
		t.Fatalf("ID = %q, want j000001", resp.ID)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("attempts = %d, want 3", got)
	}
	want := []time.Duration{2 * time.Second, 2 * time.Second}
	if len(slept) != len(want) || slept[0] != want[0] || slept[1] != want[1] {
		t.Fatalf("sleeps = %v, want %v", slept, want)
	}
}

// TestRetryExhaustionPreservesErrQueueFull: when every attempt is
// refused, the final error must still be the sentinel callers branch on.
func TestRetryExhaustionPreservesErrQueueFull(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusTooManyRequests)
		fmt.Fprint(w, `{"error":"job queue is full"}`)
	}))
	defer ts.Close()

	var slept []time.Duration
	c := New(ts.URL, nil).WithRetry(testPolicy(3, &slept))
	_, err := c.Submit(context.Background(), []byte("fw"), optbuild.Spec{})
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("err = %v, want ErrQueueFull", err)
	}
	if len(slept) != 2 {
		t.Fatalf("slept %d times, want 2 (3 attempts)", len(slept))
	}
}

// TestNoRetryByDefault: a client without WithRetry performs exactly one
// attempt, so existing backpressure handling (immediate ErrQueueFull)
// keeps working.
func TestNoRetryByDefault(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusTooManyRequests)
		fmt.Fprint(w, `{"error":"job queue is full"}`)
	}))
	defer ts.Close()

	c := New(ts.URL, nil)
	_, err := c.Submit(context.Background(), []byte("fw"), optbuild.Spec{})
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("err = %v, want ErrQueueFull", err)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("attempts = %d, want 1", got)
	}
}

// TestBackoffGrowthAndCap: without a Retry-After hint the delays double
// from BaseDelay and clamp at MaxDelay.
func TestBackoffGrowthAndCap(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprint(w, `{"error":"upstream flaked"}`)
	}))
	defer ts.Close()

	var slept []time.Duration
	c := New(ts.URL, nil).WithRetry(testPolicy(6, &slept))
	_, err := c.Job(context.Background(), "j000001")
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("err = %v, want APIError 503", err)
	}
	want := []time.Duration{
		100 * time.Millisecond, 200 * time.Millisecond,
		400 * time.Millisecond, 800 * time.Millisecond,
		800 * time.Millisecond, // capped
	}
	if len(slept) != len(want) {
		t.Fatalf("sleeps = %v, want %v", slept, want)
	}
	for i := range want {
		if slept[i] != want[i] {
			t.Fatalf("sleep[%d] = %s, want %s (all: %v)", i, slept[i], want[i], slept)
		}
	}
}

// TestTransientThenSuccess: one 503 then a 200 — the call recovers
// transparently.
func TestTransientThenSuccess(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprint(w, `{"error":"warming up"}`)
			return
		}
		json.NewEncoder(w).Encode(server.JobStatus{ID: "j000007", State: server.StateDone})
	}))
	defer ts.Close()

	var slept []time.Duration
	c := New(ts.URL, nil).WithRetry(testPolicy(3, &slept))
	st, err := c.Job(context.Background(), "j000007")
	if err != nil {
		t.Fatalf("Job: %v", err)
	}
	if st.State != server.StateDone {
		t.Fatalf("state = %q, want done", st.State)
	}
}

// TestIdempotentSubmitRecovery: the server accepts the job but the
// response never reaches the client (connection killed mid-reply). The
// retry layer must find the accepted job by content hash instead of
// posting the same firmware again.
func TestIdempotentSubmitRecovery(t *testing.T) {
	firmware := []byte("the firmware bytes")
	sum := sha256.Sum256(firmware)
	sha := hex.EncodeToString(sum[:])
	spec := specWithTopK(7)

	var posts atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.Method == http.MethodPost:
			posts.Add(1)
			// Accept the job server-side, then kill the connection so the
			// client sees a transport error instead of the 202.
			hj, ok := w.(http.Hijacker)
			if !ok {
				t.Error("response writer cannot hijack")
				return
			}
			conn, _, err := hj.Hijack()
			if err != nil {
				t.Errorf("hijack: %v", err)
				return
			}
			conn.Close()
		case r.URL.Path == "/v1/jobs" && r.URL.Query().Get("sha") == sha:
			json.NewEncoder(w).Encode(server.ListResponse{Jobs: []server.JobStatus{
				{ID: "j000042", State: server.StateQueued, SHA256: sha, Options: spec},
			}})
		default:
			t.Errorf("unexpected request %s %s", r.Method, r.URL)
			http.NotFound(w, r)
		}
	}))
	defer ts.Close()

	var slept []time.Duration
	c := New(ts.URL, nil).WithRetry(testPolicy(2, &slept))
	resp, err := c.Submit(context.Background(), firmware, spec)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if resp.ID != "j000042" {
		t.Fatalf("recovered ID = %q, want j000042", resp.ID)
	}
	if resp.Location != "/v1/jobs/j000042" {
		t.Fatalf("Location = %q", resp.Location)
	}
	// Both configured attempts fail at transport level; recovery then
	// finds the job without a third POST.
	if got := posts.Load(); got != 2 {
		t.Fatalf("POST attempts = %d, want 2", got)
	}
}

// TestIdempotentRecoveryRejectsOtherOptions: a job with the same bytes
// but a different spec is NOT ours; recovery must refuse it and surface
// the transport error.
func TestIdempotentRecoveryRejectsOtherOptions(t *testing.T) {
	firmware := []byte("the firmware bytes")
	sum := sha256.Sum256(firmware)
	sha := hex.EncodeToString(sum[:])

	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost {
			hj := w.(http.Hijacker)
			conn, _, _ := hj.Hijack()
			conn.Close()
			return
		}
		json.NewEncoder(w).Encode(server.ListResponse{Jobs: []server.JobStatus{
			{ID: "j000001", State: server.StateQueued, SHA256: sha, Options: specWithTopK(3)},
		}})
	}))
	defer ts.Close()

	var slept []time.Duration
	c := New(ts.URL, nil).WithRetry(testPolicy(2, &slept))
	_, err := c.Submit(context.Background(), firmware, specWithTopK(9))
	if err == nil {
		t.Fatal("Submit succeeded; want the transport error surfaced")
	}
}

// TestIdempotentRecoveryRejectsOtherKind: a plain job and a corpus job over
// equal bytes with default options share a hash and a normalized spec, but
// not a result shape. A SubmitCorpus whose 202 was lost must adopt the
// corpus job even when a newer plain job matches everything else.
func TestIdempotentRecoveryRejectsOtherKind(t *testing.T) {
	packed := []byte("the packed corpus bytes")
	sha := server.SubmissionSHA(packed)
	spec := specWithTopK(3)

	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost {
			hj := w.(http.Hijacker)
			conn, _, _ := hj.Hijack()
			conn.Close()
			return
		}
		json.NewEncoder(w).Encode(server.ListResponse{Jobs: []server.JobStatus{
			{ID: "j000001", State: server.StateQueued, Kind: server.KindCorpus, SHA256: sha, Options: spec},
			{ID: "j000002", State: server.StateQueued, SHA256: sha, Options: spec},
		}})
	}))
	defer ts.Close()

	var slept []time.Duration
	c := New(ts.URL, nil).WithRetry(testPolicy(2, &slept))
	resp, err := c.SubmitCorpus(context.Background(), packed, spec)
	if err != nil {
		t.Fatalf("SubmitCorpus: %v", err)
	}
	if resp.ID != "j000001" {
		t.Fatalf("recovered ID = %q, want the corpus job j000001", resp.ID)
	}
}

// TestCallTimeoutBoundsAttempt: a hung server must not hang the call
// when the policy carries a per-attempt deadline.
func TestCallTimeoutBoundsAttempt(t *testing.T) {
	block := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-block
	}))
	// Unblock the handler before Close waits on it (defers run LIFO).
	defer ts.Close()
	defer close(block)

	c := New(ts.URL, nil).WithRetry(RetryPolicy{MaxAttempts: 1, CallTimeout: 50 * time.Millisecond})
	start := time.Now()
	_, err := c.Job(context.Background(), "j000001")
	if err == nil {
		t.Fatal("Job succeeded against a hung server")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("call took %s; per-attempt timeout did not apply", elapsed)
	}
}

// TestHealthSingleAttempt: /healthz must not retry a 503 — "draining" is
// the answer, not a transient.
func TestHealthSingleAttempt(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusServiceUnavailable)
		json.NewEncoder(w).Encode(server.HealthResponse{Status: "draining", Draining: true})
	}))
	defer ts.Close()

	var slept []time.Duration
	c := New(ts.URL, nil).WithRetry(testPolicy(5, &slept))
	h, err := c.Health(context.Background())
	if err != nil {
		t.Fatalf("Health: %v", err)
	}
	if !h.Draining {
		t.Fatal("Draining = false, want true")
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("attempts = %d, want 1", got)
	}
}

// TestDiffPairHashMatchesServer pins the client's diff pair identity to
// the server's: sha256(sha256(old) || sha256(new)).
func TestDiffPairHashMatchesServer(t *testing.T) {
	oldFw, newFw := []byte("v1"), []byte("v2")
	oldSum := sha256.Sum256(oldFw)
	newSum := sha256.Sum256(newFw)
	pair := sha256.Sum256(append(oldSum[:], newSum[:]...))
	wantSHA := hex.EncodeToString(pair[:])

	var gotSHA atomic.Value
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost {
			hj := w.(http.Hijacker)
			conn, _, _ := hj.Hijack()
			conn.Close()
			return
		}
		gotSHA.Store(r.URL.Query().Get("sha"))
		json.NewEncoder(w).Encode(server.ListResponse{})
	}))
	defer ts.Close()

	var slept []time.Duration
	c := New(ts.URL, nil).WithRetry(testPolicy(2, &slept))
	if _, err := c.SubmitDiff(context.Background(), oldFw, newFw, optbuild.Spec{}); err == nil {
		t.Fatal("SubmitDiff succeeded; want transport error (no recovery match)")
	}
	if got, _ := gotSHA.Load().(string); got != wantSHA {
		t.Fatalf("recovery queried sha=%q, want %q", got, wantSHA)
	}
}
