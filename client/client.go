// Package client is the typed Go client of the fitsd analysis service. It
// speaks the job API of fits/internal/server: submit firmware, poll or
// wait for completion, fetch the byte-stable result JSON, cancel, and
// scrape health and metrics. cmd/fitsctl and the serve-smoke CI gate are
// built on it.
//
// With a RetryPolicy attached (WithRetry), every call survives transient
// failures: transport errors and 429/502/503/504 responses are retried
// with jittered exponential backoff, the server's Retry-After hint is
// honored, each attempt can carry its own deadline, and a submission
// interrupted by a transport error is recovered by its content hash
// rather than re-posted — one submission never becomes two jobs.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"reflect"
	"strconv"
	"strings"
	"time"

	"fits/internal/optbuild"
	"fits/internal/server"
)

// ErrQueueFull is returned by Submit when the server applied backpressure
// (HTTP 429); callers should back off and retry.
var ErrQueueFull = errors.New("fitsd: job queue is full")

// APIError is any other non-2xx response.
type APIError struct {
	StatusCode int
	Message    string
}

func (e *APIError) Error() string {
	return fmt.Sprintf("fitsd: %s (HTTP %d)", e.Message, e.StatusCode)
}

// RetryPolicy controls how the client survives transient failures. The
// zero value performs exactly one attempt per call — no retries, no
// per-attempt deadline — which is also what New configures.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries per call; values <= 1
	// disable retrying.
	MaxAttempts int
	// BaseDelay is the backoff before the second attempt; it doubles per
	// retry up to MaxDelay, then a jitter in [d/2, d] spreads concurrent
	// clients apart. Defaults (when retrying at all): 200ms and 5s.
	BaseDelay time.Duration
	MaxDelay  time.Duration
	// CallTimeout bounds each individual attempt, but only when the
	// caller's context carries no deadline of its own; 0 leaves attempts
	// unbounded.
	CallTimeout time.Duration

	// sleep and jitter are injection points so tests can observe backoff
	// decisions without waiting them out.
	sleep  func(ctx context.Context, d time.Duration) error
	jitter func(d time.Duration) time.Duration
}

// DefaultRetryPolicy is a production-reasonable policy: 5 attempts,
// 200ms doubling to a 5s cap, 30s per attempt.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{
		MaxAttempts: 5,
		BaseDelay:   200 * time.Millisecond,
		MaxDelay:    5 * time.Second,
		CallTimeout: 30 * time.Second,
	}
}

// Client talks to one fitsd instance.
type Client struct {
	base  string
	hc    *http.Client
	retry RetryPolicy
}

// New returns a client for the service at base (e.g.
// "http://127.0.0.1:8417"). hc may be nil for http.DefaultClient. The
// client does not retry; attach a policy with WithRetry.
func New(base string, hc *http.Client) *Client {
	if hc == nil {
		hc = http.DefaultClient
	}
	return &Client{base: strings.TrimRight(base, "/"), hc: hc}
}

// WithRetry returns a copy of the client that applies the policy to
// every call.
func (c *Client) WithRetry(p RetryPolicy) *Client {
	cp := *c
	cp.retry = p
	return &cp
}

// retryableStatus reports whether a response status is worth retrying:
// backpressure and the transient gateway errors.
func retryableStatus(code int) bool {
	switch code {
	case http.StatusTooManyRequests, http.StatusBadGateway,
		http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		return true
	}
	return false
}

// attempt executes one HTTP exchange: per-attempt deadline (when the
// caller brought none), full body read, and the parsed Retry-After hint
// of a refusal.
func (c *Client) attempt(ctx context.Context, method, path string, body []byte, contentType string) (status int, respBody []byte, retryAfter time.Duration, err error) {
	actx := ctx
	if c.retry.CallTimeout > 0 {
		if _, has := ctx.Deadline(); !has {
			var cancel context.CancelFunc
			actx, cancel = context.WithTimeout(ctx, c.retry.CallTimeout)
			defer cancel()
		}
	}
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(actx, method, c.base+path, rd)
	if err != nil {
		return 0, nil, 0, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, 0, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, 0, err
	}
	if s := resp.Header.Get("Retry-After"); s != "" {
		if secs, perr := strconv.Atoi(s); perr == nil && secs > 0 {
			retryAfter = time.Duration(secs) * time.Second
		}
	}
	return resp.StatusCode, b, retryAfter, nil
}

// backoffDelay picks the wait before retry number retries (0-based): the
// server's Retry-After verbatim when given, else jittered exponential.
func (c *Client) backoffDelay(retries int, retryAfter time.Duration) time.Duration {
	if retryAfter > 0 {
		return retryAfter
	}
	base := c.retry.BaseDelay
	if base <= 0 {
		base = 200 * time.Millisecond
	}
	maxd := c.retry.MaxDelay
	if maxd <= 0 {
		maxd = 5 * time.Second
	}
	d := base
	for i := 0; i < retries && d < maxd; i++ {
		d *= 2
	}
	if d > maxd {
		d = maxd
	}
	if c.retry.jitter != nil {
		return c.retry.jitter(d)
	}
	// Jitter into [d/2, d] so a burst of refused clients does not retry
	// in lockstep.
	return d/2 + time.Duration(rand.Int63n(int64(d/2)+1))
}

// sleepRetry waits out one backoff, abandoning it if ctx dies first.
func (c *Client) sleepRetry(ctx context.Context, retries int, retryAfter time.Duration) error {
	d := c.backoffDelay(retries, retryAfter)
	if c.retry.sleep != nil {
		return c.retry.sleep(ctx, d)
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// call executes one API exchange under the retry policy and returns the
// final status and body; the caller classifies non-2xx. Transport errors
// and retryable statuses are retried until the policy is exhausted, then
// surfaced as-is (so a final 429 still maps to ErrQueueFull).
func (c *Client) call(ctx context.Context, method, path string, body []byte, contentType string) (int, []byte, error) {
	attempts := c.retry.MaxAttempts
	if attempts < 1 {
		attempts = 1
	}
	for attempt := 1; ; attempt++ {
		status, respBody, retryAfter, err := c.attempt(ctx, method, path, body, contentType)
		if err == nil && !retryableStatus(status) {
			return status, respBody, nil
		}
		if err != nil && ctx.Err() != nil {
			return 0, nil, err
		}
		if attempt >= attempts {
			if err != nil {
				return 0, nil, err
			}
			return status, respBody, nil
		}
		if serr := c.sleepRetry(ctx, attempt-1, retryAfter); serr != nil {
			return 0, nil, serr
		}
	}
}

// Submit posts firmware bytes with the given options and returns the
// accepted job. A full queue surfaces as ErrQueueFull. The bytes travel
// raw in a multipart/form-data body, as do those of SubmitDiff and
// SubmitCorpus.
func (c *Client) Submit(ctx context.Context, firmware []byte, opts optbuild.Spec) (*server.SubmitResponse, error) {
	return c.submit(ctx, "/v1/jobs", "", &server.SubmitRequest{Firmware: firmware, Options: opts}, opts, firmware)
}

// SubmitPath asks the server to read the firmware from a path on *its*
// filesystem — the cheap route for co-located callers. The client never
// sees the bytes, so no content hash is available for idempotent
// recovery of an interrupted submission.
func (c *Client) SubmitPath(ctx context.Context, path string, opts optbuild.Spec) (*server.SubmitResponse, error) {
	return c.submit(ctx, "/v1/jobs", "", &server.SubmitRequest{Path: path, Options: opts}, opts)
}

// SubmitCorpus posts a packed firmware corpus (fits.PackCorpus bytes) for
// a cross-binary taint scan and returns the accepted job; its result is the
// CorpusReport JSON of fits.XScan.
func (c *Client) SubmitCorpus(ctx context.Context, packed []byte, opts optbuild.Spec) (*server.SubmitResponse, error) {
	return c.submit(ctx, "/v1/corpora", server.KindCorpus, &server.CorpusSubmitRequest{Corpus: packed, Options: opts}, opts, packed)
}

// SubmitCorpusPath asks the server to read a packed corpus from a path on
// its own filesystem.
func (c *Client) SubmitCorpusPath(ctx context.Context, path string, opts optbuild.Spec) (*server.SubmitResponse, error) {
	return c.submit(ctx, "/v1/corpora", server.KindCorpus, &server.CorpusSubmitRequest{Path: path, Options: opts}, opts)
}

// SubmitDiff posts two firmware versions for an evolution diff and returns
// the accepted job; its result is the server's DiffJobResult JSON.
func (c *Client) SubmitDiff(ctx context.Context, oldFw, newFw []byte, opts optbuild.Spec) (*server.SubmitResponse, error) {
	return c.submit(ctx, "/v1/diffs", server.KindDiff,
		&server.DiffSubmitRequest{OldFirmware: oldFw, NewFirmware: newFw, Options: opts}, opts, oldFw, newFw)
}

// SubmitDiffPaths asks the server to read both versions from paths on its
// own filesystem.
func (c *Client) SubmitDiffPaths(ctx context.Context, oldPath, newPath string, opts optbuild.Spec) (*server.SubmitResponse, error) {
	return c.submit(ctx, "/v1/diffs", server.KindDiff,
		&server.DiffSubmitRequest{OldPath: oldPath, NewPath: newPath, Options: opts}, opts)
}

// submit posts a request envelope to a job kind's route, encoded by
// server.EncodeSubmission: multipart when its inputs are inline, JSON when
// they are paths. A POST whose response is lost may still have been
// accepted by the server, so a plain retry could run the same submission
// twice; instead, when a transport error interrupts a submission whose
// inputs the client holds, it looks the job up by server.SubmissionSHA and
// adopts the server's copy if kind and options match.
func (c *Client) submit(ctx context.Context, route, kind string, req server.Request, opts optbuild.Spec, inputs ...[]byte) (*server.SubmitResponse, error) {
	body, contentType, err := server.EncodeSubmission(req)
	if err != nil {
		return nil, err
	}
	status, respBody, err := c.call(ctx, http.MethodPost, route, body, contentType)
	if err != nil {
		if len(inputs) > 0 && ctx.Err() == nil && c.retry.MaxAttempts > 1 {
			sha := server.SubmissionSHA(inputs...)
			if resp, rerr := c.recoverSubmitted(ctx, sha, kind, opts); rerr == nil && resp != nil {
				return resp, nil
			}
		}
		return nil, err
	}
	if status < 200 || status > 299 {
		return nil, asAPIError(status, respBody)
	}
	var resp server.SubmitResponse
	if err := json.Unmarshal(respBody, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// recoverSubmitted checks whether a submission that died mid-flight was
// in fact accepted: it lists the server's jobs for the content hash and
// adopts the newest one of the same kind whose options match what we
// posted. Kind matters: a plain job and a corpus job over equal bytes
// share a hash but not a result shape. A nil, nil return means no match —
// the caller surfaces the original error.
func (c *Client) recoverSubmitted(ctx context.Context, sha, kind string, opts optbuild.Spec) (*server.SubmitResponse, error) {
	norm := opts
	if err := norm.Normalize(); err != nil {
		return nil, err
	}
	jobs, err := c.JobsBySHA(ctx, sha)
	if err != nil {
		return nil, err
	}
	for i := len(jobs) - 1; i >= 0; i-- {
		st := jobs[i]
		if st.Kind == kind && reflect.DeepEqual(st.Options, norm) {
			return &server.SubmitResponse{
				ID: st.ID, Location: "/v1/jobs/" + st.ID, State: st.State,
			}, nil
		}
	}
	return nil, nil
}

// Job fetches one job's status, result included once done.
func (c *Client) Job(ctx context.Context, id string) (*server.JobStatus, error) {
	var st server.JobStatus
	if err := c.getJSON(ctx, "/v1/jobs/"+id, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// Jobs lists every retained job, oldest first.
func (c *Client) Jobs(ctx context.Context) ([]server.JobStatus, error) {
	var resp server.ListResponse
	if err := c.getJSON(ctx, "/v1/jobs", &resp); err != nil {
		return nil, err
	}
	return resp.Jobs, nil
}

// JobsBySHA lists the retained jobs whose content hash
// (server.SubmissionSHA) is sha. This is the idempotency index: it
// answers "did my earlier submission of these bytes land?".
func (c *Client) JobsBySHA(ctx context.Context, sha string) ([]server.JobStatus, error) {
	var resp server.ListResponse
	if err := c.getJSON(ctx, "/v1/jobs?sha="+url.QueryEscape(sha), &resp); err != nil {
		return nil, err
	}
	return resp.Jobs, nil
}

// Result fetches the raw result JSON of a done job, byte-for-byte as the
// server stored it.
func (c *Client) Result(ctx context.Context, id string) ([]byte, error) {
	status, b, err := c.call(ctx, http.MethodGet, "/v1/jobs/"+id+"/result", nil, "")
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, asAPIError(status, b)
	}
	return b, nil
}

// Cancel aborts a queued or running job.
func (c *Client) Cancel(ctx context.Context, id string) (*server.JobStatus, error) {
	status, b, err := c.call(ctx, http.MethodDelete, "/v1/jobs/"+id, nil, "")
	if err != nil {
		return nil, err
	}
	if status < 200 || status > 299 {
		return nil, asAPIError(status, b)
	}
	var st server.JobStatus
	if err := json.Unmarshal(b, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// Wait polls a job every interval (default 100ms) until it is terminal or
// ctx expires, and returns the final status.
func (c *Client) Wait(ctx context.Context, id string, interval time.Duration) (*server.JobStatus, error) {
	if interval <= 0 {
		interval = 100 * time.Millisecond
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		st, err := c.Job(ctx, id)
		if err != nil {
			return nil, err
		}
		if server.TerminalState(st.State) {
			return st, nil
		}
		select {
		case <-ctx.Done():
			return st, ctx.Err()
		case <-t.C:
		}
	}
}

// Health reads /healthz; a draining server returns its status with a nil
// error only when the HTTP exchange itself succeeded. Health is a
// deliberate single attempt — a 503 here *is* the answer ("draining"),
// not a transient to retry through.
func (c *Client) Health(ctx context.Context) (*server.HealthResponse, error) {
	_, b, _, err := c.attempt(ctx, http.MethodGet, "/healthz", nil, "")
	if err != nil {
		return nil, err
	}
	var h server.HealthResponse
	if err := json.Unmarshal(b, &h); err != nil {
		return nil, err
	}
	return &h, nil
}

// Metrics scrapes /metrics and returns the Prometheus text body.
func (c *Client) Metrics(ctx context.Context) (string, error) {
	status, b, err := c.call(ctx, http.MethodGet, "/metrics", nil, "")
	if err != nil {
		return "", err
	}
	if status != http.StatusOK {
		return "", asAPIError(status, b)
	}
	return string(b), nil
}

// getJSON executes a retried GET expecting a 2xx JSON body decoded into
// out.
func (c *Client) getJSON(ctx context.Context, path string, out any) error {
	status, b, err := c.call(ctx, http.MethodGet, path, nil, "")
	if err != nil {
		return err
	}
	if status < 200 || status > 299 {
		return asAPIError(status, b)
	}
	return json.Unmarshal(b, out)
}

func asAPIError(code int, body []byte) error {
	if code == http.StatusTooManyRequests {
		return ErrQueueFull
	}
	var e server.ErrorResponse
	if json.Unmarshal(body, &e) == nil && e.Error != "" {
		return &APIError{StatusCode: code, Message: e.Error}
	}
	return &APIError{StatusCode: code, Message: strings.TrimSpace(string(body))}
}
