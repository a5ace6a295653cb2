// Crash-safety tests of the fitsd durability layer: disk-served
// resubmissions, journal replay across restarts, panic isolation,
// corrupt-image classification, and a randomized crash-recovery property
// test asserting that no acknowledged job is ever lost and no corrupt
// result is ever served.
package server_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"fits/client"
	"fits/internal/diskstore"
	"fits/internal/faultinj"
	"fits/internal/optbuild"
	"fits/internal/server"
)

// echoRunner completes instantly with a result that embeds the job's kind
// and every input, so tests can verify which bytes a result was computed
// from.
func echoRunner(ctx context.Context, kind string, in [][]byte, spec optbuild.Spec, env server.RunEnv) (*server.RunOutput, error) {
	parts := make([]string, len(in))
	for i, b := range in {
		parts[i] = string(b)
	}
	return &server.RunOutput{ResultJSON: []byte(echoResult(kind, parts...))}, nil
}

// echoResult is echoRunner's result for a job of the kind over inputs.
func echoResult(kind string, inputs ...string) string {
	payload := strings.Join(inputs, "|")
	if kind != "" {
		payload = kind + ":" + payload
	}
	return `{"echo":` + strconv.Quote(payload) + `}`
}

// holdRunner blocks jobs whose first input is "hold" until their context
// dies (signalling on started first) and echoes everything else instantly.
// It lets a test park one job mid-run and stack more behind it.
type holdRunner struct {
	started chan struct{}
}

func newHoldRunner() *holdRunner {
	return &holdRunner{started: make(chan struct{}, 64)}
}

func (r *holdRunner) run(ctx context.Context, kind string, in [][]byte, spec optbuild.Spec, env server.RunEnv) (*server.RunOutput, error) {
	if string(in[0]) == "hold" {
		r.started <- struct{}{}
		<-ctx.Done()
		return nil, ctx.Err()
	}
	return echoRunner(ctx, kind, in, spec, env)
}

func (r *holdRunner) waitStarted(t *testing.T) {
	t.Helper()
	select {
	case <-r.started:
	case <-time.After(5 * time.Second):
		t.Fatal("hold job did not start within 5s")
	}
}

// startService brings up a server without registering any cleanup, so
// crash tests can abandon it mid-flight (the moral equivalent of SIGKILL:
// no drain, no journal close, workers parked forever).
func startService(t *testing.T, cfg server.Config) (*server.Server, *httptest.Server, *client.Client) {
	t.Helper()
	srv := mustServer(t, cfg)
	ts := httptest.NewServer(srv)
	return srv, ts, client.New(ts.URL, ts.Client())
}

func submitAndWait(t *testing.T, c *client.Client, payload string) *server.JobStatus {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	sub, err := c.Submit(ctx, []byte(payload), optbuild.Spec{})
	if err != nil {
		t.Fatalf("submit %q: %v", payload, err)
	}
	st, err := c.Wait(ctx, sub.ID, 5*time.Millisecond)
	if err != nil {
		t.Fatalf("wait %q: %v", payload, err)
	}
	return st
}

// TestPersistResubmitServedFromDisk: once a job completes with DataDir
// set, resubmitting the identical bytes returns instantly from the disk
// store — in the same process and, more importantly, across a restart.
func TestPersistResubmitServedFromDisk(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()

	srv1, ts1, c1 := startService(t, server.Config{Workers: 1, DataDir: dir, Runner: echoRunner})
	st := submitAndWait(t, c1, "persist-me")
	if st.State != server.StateDone {
		t.Fatalf("first run: %s (%s)", st.State, st.Error)
	}
	res1, err := c1.Result(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}

	// Same process: the second submit never reaches the runner.
	sub2, err := c1.Submit(ctx, []byte("persist-me"), optbuild.Spec{})
	if err != nil {
		t.Fatal(err)
	}
	if sub2.State != server.StateDone {
		t.Fatalf("resubmit state = %s, want done immediately", sub2.State)
	}
	res2, err := c1.Result(ctx, sub2.ID)
	if err != nil {
		t.Fatal(err)
	}
	if string(res1) != string(res2) {
		t.Fatalf("disk-served result diverged: %s vs %s", res1, res2)
	}
	m, err := c1.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(m, "fitsd_disk_hits_total 1") {
		t.Error("metrics missing fitsd_disk_hits_total 1")
	}
	sctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	srv1.Shutdown(sctx)
	cancel()
	ts1.Close()

	// Restart on the same directory with a runner that must never fire.
	ran := false
	srv2, ts2, c2 := startService(t, server.Config{
		Workers: 1, DataDir: dir,
		Runner: func(ctx context.Context, kind string, in [][]byte, spec optbuild.Spec, env server.RunEnv) (*server.RunOutput, error) {
			ran = true
			return echoRunner(ctx, kind, in, spec, env)
		},
	})
	defer func() {
		sctx, cancel := context.WithTimeout(ctx, 5*time.Second)
		defer cancel()
		srv2.Shutdown(sctx)
		ts2.Close()
	}()

	// The pre-restart job IDs survived, results lazily loaded from disk.
	old, err := c2.Job(ctx, st.ID)
	if err != nil {
		t.Fatalf("pre-restart job lost: %v", err)
	}
	if old.State != server.StateDone {
		t.Fatalf("recovered job state = %s", old.State)
	}
	resOld, err := c2.Result(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if string(resOld) != string(res1) {
		t.Fatalf("recovered result diverged: %s vs %s", resOld, res1)
	}

	sub3, err := c2.Submit(ctx, []byte("persist-me"), optbuild.Spec{})
	if err != nil {
		t.Fatal(err)
	}
	if sub3.State != server.StateDone {
		t.Fatalf("post-restart resubmit state = %s, want done", sub3.State)
	}
	res3, err := c2.Result(ctx, sub3.ID)
	if err != nil {
		t.Fatal(err)
	}
	if string(res3) != string(res1) {
		t.Fatalf("post-restart result diverged: %s vs %s", res3, res1)
	}
	if ran {
		t.Error("runner fired for bytes whose result was already on disk")
	}
}

// TestDiskHitTornJournalBatch: a disk hit journals its accepted and
// finished records in one append. A power cut during that append's fsync
// that tears the batch leaves the accepted record alone, so replay sees a
// job accepted and never finished — what a crash between two separate
// appends left — and re-runs it from its blobs to the same result.
func TestDiskHitTornJournalBatch(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	fp := faultinj.NewSet()
	srv1, ts1, c1 := startService(t, server.Config{Workers: 1, DataDir: dir, Runner: echoRunner, Failpoints: fp})
	if st := submitAndWait(t, c1, "torn"); st.State != server.StateDone {
		t.Fatalf("first run: %s (%s)", st.State, st.Error)
	}
	journal := filepath.Join(dir, "journal.wal")
	fp.FailOnce(diskstore.PointJournalFsync, faultinj.Crash(diskstore.PointJournalFsync))
	hit, err := c1.Submit(ctx, []byte("torn"), optbuild.Spec{})
	if err != nil || hit.State != server.StateDone {
		t.Fatalf("resubmit = %+v, %v; want a disk hit despite the journal fault", hit, err)
	}
	ts1.Close()
	srv1.Close()

	b, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(journal, b[:len(b)-1], 0o644); err != nil {
		t.Fatal(err)
	}
	recs, _ := diskstore.DecodeRecords(b[:len(b)-1])
	last := recs[len(recs)-1]
	if last.ID != hit.ID || last.Op != diskstore.OpAccepted {
		t.Fatalf("torn journal ends in %+v, want %s's accepted record", last, hit.ID)
	}

	srv2, ts2, c2 := startService(t, server.Config{Workers: 1, DataDir: dir, Runner: echoRunner})
	defer func() {
		sctx, cancel := context.WithTimeout(ctx, 5*time.Second)
		defer cancel()
		srv2.Shutdown(sctx)
		ts2.Close()
	}()
	wctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	st, err := c2.Wait(wctx, hit.ID, 5*time.Millisecond)
	if err != nil || st.State != server.StateDone || st.StartedAt == nil {
		t.Fatalf("replayed disk hit = %+v, %v; want re-run to done", st, err)
	}
	if res, err := c2.Result(ctx, hit.ID); err != nil || string(res) != echoResult("", "torn") {
		t.Fatalf("replayed disk hit result = %s, %v", res, err)
	}
}

// TestReplayRequeuesAndInterrupts: a crash with one job mid-run and one
// still queued must, after restart, report the first interrupted and run
// the second to completion from journaled state alone.
func TestReplayRequeuesAndInterrupts(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()

	r := newHoldRunner()
	srv1, ts1, c1 := startService(t, server.Config{Workers: 1, DataDir: dir, Runner: r.run})
	subHold, err := c1.Submit(ctx, []byte("hold"), optbuild.Spec{})
	if err != nil {
		t.Fatal(err)
	}
	r.waitStarted(t)
	subQ, err := c1.Submit(ctx, []byte("queued-behind"), optbuild.Spec{})
	if err != nil {
		t.Fatal(err)
	}
	// Crash: no Shutdown, no drain; the worker stays parked. Close only
	// releases the persistence handles so the restart can take the
	// data-dir lock — everything else is abandoned, as in a real crash.
	ts1.Close()
	srv1.Close()

	srv2, ts2, c2 := startService(t, server.Config{Workers: 1, DataDir: dir, Runner: echoRunner})
	defer func() {
		sctx, cancel := context.WithTimeout(ctx, 5*time.Second)
		defer cancel()
		srv2.Shutdown(sctx)
		ts2.Close()
	}()

	stHold, err := c2.Job(ctx, subHold.ID)
	if err != nil {
		t.Fatalf("mid-run job lost by replay: %v", err)
	}
	if stHold.State != server.StateInterrupted {
		t.Fatalf("mid-run job state = %s, want interrupted", stHold.State)
	}
	wctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	stQ, err := c2.Wait(wctx, subQ.ID, 5*time.Millisecond)
	if err != nil {
		t.Fatalf("queued job lost by replay: %v", err)
	}
	if stQ.State != server.StateDone {
		t.Fatalf("requeued job state = %s (%s), want done", stQ.State, stQ.Error)
	}
	res, err := c2.Result(ctx, subQ.ID)
	if err != nil {
		t.Fatal(err)
	}
	if string(res) != echoResult("", "queued-behind") {
		t.Fatalf("requeued job ran on wrong bytes: %s", res)
	}
	m, err := c2.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(m, "fitsd_jobs_interrupted_total 1") {
		t.Error("metrics missing fitsd_jobs_interrupted_total 1")
	}
}

// TestReplayFailsUnreadableOptions: a queued job whose journaled options
// do not decode (a record from a build with another optbuild.Spec schema)
// is failed at recovery. Requeueing it under zero or partial options would
// store a result at the disk key of options it never ran with.
func TestReplayFailsUnreadableOptions(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()

	r := newHoldRunner()
	srv1, ts1, c1 := startService(t, server.Config{Workers: 1, DataDir: dir, Runner: r.run})
	if _, err := c1.Submit(ctx, []byte("hold"), optbuild.Spec{}); err != nil {
		t.Fatal(err)
	}
	r.waitStarted(t)
	subQ, err := c1.Submit(ctx, []byte("queued-behind"), optbuild.Spec{TopK: 3})
	if err != nil {
		t.Fatal(err)
	}
	ts1.Close()
	srv1.Close()

	walPath := filepath.Join(dir, "journal.wal")
	wal, recs, err := diskstore.OpenJournal(walPath, nil)
	if err != nil {
		t.Fatal(err)
	}
	rewritten := false
	for i := range recs {
		if recs[i].Op == diskstore.OpAccepted && recs[i].ID == subQ.ID {
			recs[i].Spec = json.RawMessage(`{"top_k":"three"}`)
			rewritten = true
		}
	}
	if !rewritten {
		t.Fatalf("no accepted record for %s in the journal", subQ.ID)
	}
	if err := wal.Rewrite(recs); err != nil {
		t.Fatal(err)
	}
	if err := wal.Close(); err != nil {
		t.Fatal(err)
	}

	var ran atomic.Bool
	srv2, ts2, c2 := startService(t, server.Config{
		Workers: 1, DataDir: dir,
		Runner: func(ctx context.Context, kind string, in [][]byte, spec optbuild.Spec, env server.RunEnv) (*server.RunOutput, error) {
			ran.Store(true)
			return echoRunner(ctx, kind, in, spec, env)
		},
	})
	defer func() {
		sctx, cancel := context.WithTimeout(ctx, 5*time.Second)
		defer cancel()
		srv2.Shutdown(sctx)
		ts2.Close()
	}()

	st, err := c2.Job(ctx, subQ.ID)
	if err != nil {
		t.Fatalf("queued job lost by replay: %v", err)
	}
	if st.State != server.StateFailed || !strings.Contains(st.Error, "options unreadable") {
		t.Fatalf("job with unreadable options: state %s (%s), want failed with options unreadable", st.State, st.Error)
	}
	if ran.Load() {
		t.Error("runner fired for a job whose options could not be read")
	}
	results, err := os.ReadDir(filepath.Join(dir, "results"))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 0 {
		t.Errorf("disk store holds %d results, want none", len(results))
	}
}

// TestWorkerPanicIsolated: a panic in the analysis of one image fails
// only that job — with the reason and stack captured — and the worker
// keeps serving subsequent jobs.
func TestWorkerPanicIsolated(t *testing.T) {
	panicky := func(ctx context.Context, kind string, in [][]byte, spec optbuild.Spec, env server.RunEnv) (*server.RunOutput, error) {
		if string(in[0]) == "boom" {
			panic("hostile image dereferenced a nil model")
		}
		return echoRunner(ctx, kind, in, spec, env)
	}
	_, c := newTestService(t, server.Config{Workers: 1, Runner: panicky})
	ctx := context.Background()

	st := submitAndWait(t, c, "boom")
	if st.State != server.StateFailed {
		t.Fatalf("panicked job state = %s, want failed", st.State)
	}
	if st.Reason != server.ReasonPanic {
		t.Fatalf("panicked job reason = %q, want %q", st.Reason, server.ReasonPanic)
	}
	if !strings.Contains(st.Error, "analysis panicked") ||
		!strings.Contains(st.Error, "hostile image dereferenced a nil model") {
		t.Fatalf("panic error lacks diagnosis: %q", st.Error)
	}
	if !strings.Contains(st.Error, "goroutine") {
		t.Errorf("panic error lacks a captured stack: %q", st.Error)
	}

	// The worker survived; the next job runs normally.
	st2 := submitAndWait(t, c, "fine")
	if st2.State != server.StateDone {
		t.Fatalf("job after panic: %s (%s)", st2.State, st2.Error)
	}
	m, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(m, "fitsd_job_panics_total 1") {
		t.Error("metrics missing fitsd_job_panics_total 1")
	}
}

// TestCorruptImage422: the default pipeline classifies malformed images
// via firmware.ErrCorrupt, and fetching the result of such a failure
// yields 422 rather than the generic 409.
func TestCorruptImage422(t *testing.T) {
	_, c := newTestService(t, server.Config{Workers: 1})
	ctx := context.Background()

	st := submitAndWait(t, c, "this is definitely not a firmware image")
	if st.State != server.StateFailed {
		t.Fatalf("garbage image state = %s, want failed", st.State)
	}
	if st.Reason != server.ReasonCorrupt {
		t.Fatalf("garbage image reason = %q, want %q", st.Reason, server.ReasonCorrupt)
	}
	_, err := c.Result(ctx, st.ID)
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.StatusCode != 422 {
		t.Fatalf("result of corrupt-image job: err = %v, want HTTP 422", err)
	}
}

// jobKinds are the kinds a crash-recovery round draws from.
var jobKinds = []string{"", server.KindDiff, server.KindCorpus}

// submission is one job of some kind over inputs derived from a payload:
// a diff pairs the payload with payload+"-new".
type submission struct{ kind, payload string }

func (sub submission) inputs() []string {
	if sub.kind == server.KindDiff {
		return []string{sub.payload, sub.payload + "-new"}
	}
	return []string{sub.payload}
}

func (sub submission) post(ctx context.Context, c *client.Client) (*server.SubmitResponse, error) {
	in := sub.inputs()
	switch sub.kind {
	case server.KindDiff:
		return c.SubmitDiff(ctx, []byte(in[0]), []byte(in[1]), optbuild.Spec{})
	case server.KindCorpus:
		return c.SubmitCorpus(ctx, []byte(in[0]), optbuild.Spec{})
	}
	return c.Submit(ctx, []byte(in[0]), optbuild.Spec{})
}

// sha is the submission's expected JobStatus.SHA256.
func (sub submission) sha() string {
	var in [][]byte
	for _, s := range sub.inputs() {
		in = append(in, []byte(s))
	}
	return server.SubmissionSHA(in...)
}

func (sub submission) echo() string { return echoResult(sub.kind, sub.inputs()...) }

// TestCrashRecoveryProperty is the randomized kill-point harness at the
// server level: each round builds a random mix of done, mid-run and
// queued jobs, each of a random kind (plain, diff, corpus), crashes the
// daemon without ceremony, sometimes corrupts a random on-disk result,
// restarts on the same directory, and asserts the invariants — every
// acknowledged job is still addressable with the right outcome, identity
// and inputs, corrupted bytes are never served as a result, and
// resubmitting a finished job's inputs reproduces its result.
func TestCrashRecoveryProperty(t *testing.T) {
	const rounds = 30
	ctx := context.Background()
	for round := 0; round < rounds; round++ {
		round := round
		t.Run(fmt.Sprintf("round%02d", round), func(t *testing.T) {
			rnd := rand.New(rand.NewSource(int64(round) * 7919))
			kind := func() string { return jobKinds[rnd.Intn(len(jobKinds))] }
			dir := t.TempDir()
			nDone := rnd.Intn(3)
			hold := rnd.Intn(2) == 1
			nQueued := 0
			if hold {
				// Queued jobs exist only while a worker is wedged.
				nQueued = rnd.Intn(3)
			}

			r := newHoldRunner()
			srv1, ts1, c1 := startService(t, server.Config{Workers: 1, DataDir: dir, Runner: r.run})
			type acked struct {
				id   string
				sub  submission
				want string // expected state after recovery
			}
			var jobs []acked
			submit := func(sub submission) string {
				resp, err := sub.post(ctx, c1)
				if err != nil {
					t.Fatalf("submit %+v: %v", sub, err)
				}
				return resp.ID
			}
			for i := 0; i < nDone; i++ {
				sub := submission{kind(), fmt.Sprintf("done-%d-%d", round, i)}
				id := submit(sub)
				wctx, cancel := context.WithTimeout(ctx, 10*time.Second)
				st, err := c1.Wait(wctx, id, 5*time.Millisecond)
				cancel()
				if err != nil || st.State != server.StateDone {
					t.Fatalf("setup job %+v: %v %+v", sub, err, st)
				}
				jobs = append(jobs, acked{id, sub, server.StateDone})
			}
			if hold {
				sub := submission{kind(), "hold"}
				id := submit(sub)
				r.waitStarted(t)
				jobs = append(jobs, acked{id, sub, server.StateInterrupted})
				for i := 0; i < nQueued; i++ {
					sub := submission{kind(), fmt.Sprintf("q-%d-%d", round, i)}
					jobs = append(jobs, acked{submit(sub), sub, server.StateDone})
				}
			}

			// Crash (Close only releases the data-dir lock; nothing drains).
			// Then, half the time, scribble over one stored result.
			ts1.Close()
			srv1.Close()
			corrupted := false
			if nDone > 0 && rnd.Intn(2) == 1 {
				ents, err := os.ReadDir(filepath.Join(dir, "results"))
				if err != nil {
					t.Fatal(err)
				}
				if len(ents) > 0 {
					victim := filepath.Join(dir, "results", ents[rnd.Intn(len(ents))].Name())
					b, err := os.ReadFile(victim)
					if err != nil {
						t.Fatal(err)
					}
					if rnd.Intn(2) == 1 && len(b) > 2 {
						b = b[:len(b)/2] // torn write
					} else {
						b[len(b)/2] ^= 0xff // bit rot
					}
					if err := os.WriteFile(victim, b, 0o644); err != nil {
						t.Fatal(err)
					}
					corrupted = true
				}
			}

			srv2, ts2, c2 := startService(t, server.Config{Workers: 1, DataDir: dir, Runner: echoRunner})
			defer func() {
				sctx, cancel := context.WithTimeout(ctx, 5*time.Second)
				defer cancel()
				srv2.Shutdown(sctx)
				ts2.Close()
			}()

			for _, j := range jobs {
				wctx, cancel := context.WithTimeout(ctx, 10*time.Second)
				st, err := c2.Wait(wctx, j.id, 5*time.Millisecond)
				cancel()
				if err != nil {
					t.Fatalf("acknowledged job %s (%+v) lost after crash: %v", j.id, j.sub, err)
				}
				if st.State != j.want {
					t.Fatalf("job %s (%+v): state %s (%s), want %s", j.id, j.sub, st.State, st.Error, j.want)
				}
				if st.Kind != j.sub.kind || st.SHA256 != j.sub.sha() {
					t.Fatalf("job %s (%+v): replayed as kind %q sha %s, want %q %s",
						j.id, j.sub, st.Kind, st.SHA256, j.sub.kind, j.sub.sha())
				}
				if j.want != server.StateDone {
					continue
				}
				res, err := c2.Result(ctx, j.id)
				switch {
				case err == nil:
					if string(res) != j.sub.echo() {
						t.Fatalf("job %s served wrong bytes: %s", j.id, res)
					}
				case corrupted:
					// The unlucky entry: a clean 5xx, never garbage.
					var apiErr *client.APIError
					if !errors.As(err, &apiErr) || apiErr.StatusCode != 500 {
						t.Fatalf("job %s with corrupt entry: err = %v, want HTTP 500", j.id, err)
					}
				default:
					t.Fatalf("job %s result: %v", j.id, err)
				}

				// Resubmitting the same inputs is the same submission: a disk
				// hit, or a rerun where the entry was corrupted, with the
				// same identity and result either way.
				resp, err := j.sub.post(ctx, c2)
				if err != nil {
					t.Fatalf("resubmit %+v: %v", j.sub, err)
				}
				wctx, cancel = context.WithTimeout(ctx, 10*time.Second)
				st2, err := c2.Wait(wctx, resp.ID, 5*time.Millisecond)
				cancel()
				if err != nil || st2.State != server.StateDone || st2.SHA256 != st.SHA256 {
					t.Fatalf("resubmit %+v: %v %+v, want done with sha %s", j.sub, err, st2, st.SHA256)
				}
				if res, err := c2.Result(ctx, resp.ID); err != nil || string(res) != j.sub.echo() {
					t.Fatalf("resubmit %+v result: %s, %v", j.sub, res, err)
				}
			}
		})
	}
}
