// Package server implements fitsd, the long-running analysis service: a
// job-oriented HTTP API over the fits pipeline with a bounded FIFO queue,
// a worker pool sharing one process-wide model cache, an LRU+TTL result
// store, Prometheus-text metrics, and graceful drain.
//
// The lifecycle of a submission:
//
//	POST /v1/{jobs,diffs,corpora} ── queue (bounded; full ⇒ 429 + Retry-After) ── worker
//	  ⇒ running (per-job context: base ∧ server timeout ∧ job timeout)
//	  ⇒ done | failed | canceled ── result store (LRU + TTL)
//
// Backpressure is explicit: the queue never blocks a request and never
// grows past its depth, so memory is bounded by depth × image size and
// callers see 429 instead of the server seeing OOM. Shutdown stops intake,
// cancels jobs still queued, lets in-flight jobs finish until the caller's
// deadline, then hard-cancels their contexts and waits for the workers.
//
// With Config.DataDir set the server is additionally crash-safe (see
// persist.go and internal/diskstore): accepted jobs are journaled before
// the 202 and replayed on boot, completed results are content-addressed
// on disk and served instantly on resubmission, and a panic in the
// analysis of a hostile image fails only that job.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"path/filepath"
	"runtime/debug"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"fits"
	"fits/internal/diskstore"
	"fits/internal/faultinj"
	"fits/internal/modelcache"
	"fits/internal/stagetime"
)

// Defaults for Config zero values.
const (
	DefaultWorkers        = 2
	DefaultQueueDepth     = 64
	DefaultStoreCap       = 1024
	DefaultStoreTTL       = time.Hour
	DefaultMaxUploadBytes = 256 << 20
)

// Config parameterizes a Server. The zero value is usable.
type Config struct {
	// Workers is the number of jobs run concurrently (default 2). Each job
	// additionally fans out internally per its Parallelism option, so the
	// product of the two is the upper bound on busy goroutines.
	Workers int
	// QueueDepth bounds jobs accepted but not yet running (default 64);
	// submissions beyond it are rejected with 429.
	QueueDepth int
	// JobTimeout caps any single job's run time (0 = unlimited). A job's
	// own requested timeout can only shorten it further.
	JobTimeout time.Duration
	// StoreCap bounds retained finished jobs (default 1024, LRU-evicted);
	// StoreTTL expires them by age (default 1h, 0 = never).
	StoreCap int
	StoreTTL time.Duration
	// MaxUploadBytes bounds each input of a multipart submission, and a
	// JSON or octet-stream request body as a whole (default 256 MiB).
	MaxUploadBytes int64
	// Cache is the process-wide model cache shared by all workers; nil
	// disables model reuse across jobs.
	Cache *fits.Cache
	// Runner replaces the pipelines of every job kind (default
	// DefaultRunner); tests inject stubs to exercise queueing and drain.
	Runner Runner
	// DataDir enables the durability layer: a content-addressed on-disk
	// result store and a write-ahead journal for the job queue, rooted at
	// this directory. Empty disables persistence (the pre-existing,
	// memory-only behavior).
	DataDir string
	// Failpoints injects faults into the durability layer's filesystem
	// operations; nil (the default) disarms every point. Tests only.
	Failpoints *faultinj.Set
	// Logf receives one line per job transition; nil silences logging.
	Logf func(format string, args ...any)
}

func (c *Config) fill() {
	if c.Workers <= 0 {
		c.Workers = DefaultWorkers
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = DefaultQueueDepth
	}
	if c.StoreCap <= 0 {
		c.StoreCap = DefaultStoreCap
	}
	if c.StoreTTL == 0 {
		c.StoreTTL = DefaultStoreTTL
	}
	if c.MaxUploadBytes <= 0 {
		c.MaxUploadBytes = DefaultMaxUploadBytes
	}
	if c.Runner == nil {
		c.Runner = DefaultRunner
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
}

// Server is the fitsd HTTP service. Create with New, serve it as an
// http.Handler, stop it with Shutdown.
type Server struct {
	cfg   Config
	store *store
	queue chan *Job
	mux   *http.ServeMux
	reg   *Registry

	baseCtx    context.Context
	baseCancel context.CancelFunc
	workerWG   sync.WaitGroup
	janitorWG  sync.WaitGroup
	stop       chan struct{}

	qmu      sync.Mutex // serializes queue send vs. close
	draining bool       // guarded by qmu

	seq     atomic.Uint64
	running sync.Map // job id -> *Job, jobs currently in a worker

	// persist and journal form the durability layer; both are nil when
	// Config.DataDir is empty. lat feeds the derived Retry-After.
	persist *diskstore.Store
	journal *diskstore.Journal
	lat     latencyTracker

	mAccepted      *Counter
	mRejected      *Counter
	mCompleted     *Counter
	mFailed        *Counter
	mCanceled      *Counter
	mPanics        *Counter
	mInterrupted   *Counter
	mDiskHits      *Counter
	mPersistErrors *Counter
	gRunning       *Gauge
	hDuration      *Histogram

	mCorpusJobs     *Counter
	mCorpusBinaries *Counter
	mCorpusCross    *Counter
	mTruncated      *Counter
	hCorpusRounds   *Histogram

	// diffReuse holds the float64 bits of the last completed diff's
	// function-reuse ratio, exported as fits_diff_reuse_ratio.
	diffReuse  atomic.Uint64
	hDiffStage map[string]*Histogram
	hStage     map[stagetime.Stage]*Histogram

	// sched is the analysis worker pool shared by every job: concurrent jobs
	// draw their model-building and inference fan-outs from one budget
	// instead of multiplying Workers × Parallelism goroutines.
	sched *fits.Scheduler

	now func() time.Time
}

// New builds a server and starts its workers and store janitor. With
// Config.DataDir set it also opens the durability layer and replays the
// job journal: jobs accepted but never started before the last crash are
// re-enqueued ahead of new submissions, jobs caught mid-run come back
// interrupted, and finished jobs reappear terminal with their results
// served from disk on demand.
func New(cfg Config) (*Server, error) {
	cfg.fill()
	s := &Server{
		cfg:  cfg,
		mux:  http.NewServeMux(),
		reg:  NewRegistry(),
		stop: make(chan struct{}),
		now:  time.Now,
	}
	s.store = newStore(cfg.StoreCap, cfg.StoreTTL, func() time.Time { return s.now() })
	//fitslint:ignore ctxflow server-lifetime root: every job context derives from it and Shutdown cancels it
	s.baseCtx, s.baseCancel = context.WithCancel(context.Background())

	s.mAccepted = s.reg.Counter("fitsd_jobs_accepted_total", "Jobs accepted into the queue.")
	s.mRejected = s.reg.Counter("fitsd_jobs_rejected_total", "Submissions rejected with 429 because the queue was full.")
	s.mCompleted = s.reg.Counter("fitsd_jobs_completed_total", "Jobs that finished successfully.")
	s.mFailed = s.reg.Counter("fitsd_jobs_failed_total", "Jobs that ended in an error (including timeouts).")
	s.mCanceled = s.reg.Counter("fitsd_jobs_canceled_total", "Jobs canceled by DELETE or server drain.")
	s.mPanics = s.reg.Counter("fitsd_job_panics_total", "Analysis panics recovered and confined to their job.")
	s.mInterrupted = s.reg.Counter("fitsd_jobs_interrupted_total", "Jobs found mid-run by journal replay after a crash.")
	s.mDiskHits = s.reg.Counter("fitsd_disk_hits_total", "Submissions answered from the on-disk result store without running.")
	s.mPersistErrors = s.reg.Counter("fitsd_persist_errors_total", "Non-fatal failures of the durability layer (journal appends, result writes).")
	s.gRunning = s.reg.Gauge("fitsd_jobs_running", "Jobs currently executing in a worker.")
	s.reg.GaugeFunc("fitsd_queue_depth", "Jobs accepted but not yet picked up by a worker.",
		func() float64 { return float64(len(s.queue)) })
	s.reg.GaugeFunc("fitsd_store_jobs", "Jobs currently retained (queued, running and finished).",
		func() float64 { n, _, _ := s.store.counts(); return float64(n) })
	s.reg.CounterFunc("fitsd_store_evicted_total", "Finished jobs dropped by LRU capacity or TTL expiry.",
		func() float64 { _, _, ev := s.store.counts(); return float64(ev) })
	s.hDuration = s.reg.Histogram("fitsd_job_duration_seconds", "Run duration of finished jobs.",
		0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60)
	s.reg.GaugeFunc("fits_diff_reuse_ratio", "Function-reuse ratio of the most recently completed diff job.",
		func() float64 { return math.Float64frombits(s.diffReuse.Load()) })
	s.mCorpusJobs = s.reg.Counter("fitsd_corpus_jobs_total", "Corpus scan jobs that completed successfully.")
	s.mCorpusBinaries = s.reg.Counter("fitsd_corpus_binaries_total", "Executable binaries analyzed across completed corpus jobs.")
	s.mCorpusCross = s.reg.Counter("fitsd_corpus_cross_alerts_total", "Cross-binary alerts reported by completed corpus jobs.")
	s.hCorpusRounds = s.reg.Histogram("fitsd_corpus_rounds", "Fixpoint rounds per completed corpus job.",
		1, 2, 3, 4, 5, 6, 7, 8)
	s.mTruncated = s.reg.Counter("fitsd_analysis_truncated_total",
		"Alerts reported from functions where an analysis budget tripped (taint fixpoint pass budget or alias fact budget).")
	// One analysis scheduler for the whole process, sized to GOMAXPROCS: the
	// per-job worker count then bounds job concurrency while this bounds the
	// total analysis goroutines those jobs fan out between them.
	s.sched = fits.NewScheduler(0)
	s.hStage = map[stagetime.Stage]*Histogram{}
	for _, st := range stagetime.Stages() {
		s.hStage[st] = s.reg.Histogram("fitsd_stage_"+st.String()+"_seconds",
			"Per-job self time of the "+st.String()+" pipeline stage (nested stages excluded).",
			0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30)
	}
	s.hDiffStage = map[string]*Histogram{}
	for _, st := range [...]struct{ name, help string }{
		{"analyze_old", "Diff stage: analysis of the old version."},
		{"scan_old", "Diff stage: taint scan of the old version."},
		{"analyze_new", "Diff stage: incremental analysis of the new version."},
		{"scan_new", "Diff stage: taint scan of the new version."},
		{"align", "Diff stage: function alignment and churn computation."},
	} {
		s.hDiffStage[st.name] = s.reg.Histogram("fitsd_diff_"+st.name+"_seconds", st.help,
			0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30)
	}
	if c := cfg.Cache; c != nil {
		s.reg.CounterFunc("fitsd_model_cache_hits_total", "Model cache hits.",
			func() float64 { return float64(c.Stats().Hits) })
		s.reg.CounterFunc("fitsd_model_cache_misses_total", "Model cache misses.",
			func() float64 { return float64(c.Stats().Misses) })
		s.reg.CounterFunc("fitsd_model_cache_evictions_total", "Model cache evictions.",
			func() float64 { return float64(c.Stats().Evictions) })
		s.reg.GaugeFunc("fitsd_model_cache_bytes", "Approximate bytes of cached models.",
			func() float64 { return float64(c.Stats().Bytes) })
		s.reg.GaugeFunc("fitsd_model_cache_hit_ratio", "Hits / (hits+misses) over the cache lifetime.",
			func() float64 { return c.Stats().HitRate() })
	}

	// Open the durability layer and replay the journal before any worker
	// starts, so recovered jobs are enqueued ahead of new submissions and
	// no worker can observe a half-replayed store. The queue is sized up if
	// a crash left more acknowledged jobs than the configured depth —
	// replay must never drop what was 202'd.
	var requeue []*Job
	if cfg.DataDir != "" {
		var err error
		s.persist, err = diskstore.Open(cfg.DataDir, cfg.Failpoints)
		if err != nil {
			return nil, err
		}
		journal, recs, err := diskstore.OpenJournal(filepath.Join(cfg.DataDir, "journal.wal"), cfg.Failpoints)
		if err != nil {
			return nil, err
		}
		s.journal = journal
		var compact []diskstore.Record
		requeue, compact = s.replayJournal(recs)
		if err := journal.Rewrite(compact); err != nil {
			return nil, err
		}
		if len(recs) > 0 {
			s.cfg.Logf("journal replay: %d records, %d jobs re-enqueued", len(recs), len(requeue))
		}
		s.reg.CounterFunc("fitsd_disk_writes_total", "Result entries durably written to the disk store.",
			func() float64 { return float64(s.persist.Stats().Writes) })
		s.reg.CounterFunc("fitsd_disk_quarantined_total", "Corrupt on-disk entries quarantined instead of served.",
			func() float64 { return float64(s.persist.Stats().Quarantined) })
		s.reg.GaugeFunc("fitsd_disk_entries", "Result entries currently in the disk store.",
			func() float64 { return float64(s.persist.Stats().Entries) })
	}
	depth := cfg.QueueDepth
	if len(requeue) > depth {
		depth = len(requeue)
	}
	s.queue = make(chan *Job, depth)
	for _, j := range requeue {
		s.queue <- j
	}

	s.routes()
	for i := 0; i < cfg.Workers; i++ {
		s.workerWG.Add(1)
		go s.worker()
	}
	s.janitorWG.Add(1)
	go s.janitor()
	return s, nil
}

func (s *Server) routes() {
	for _, k := range jobKinds {
		s.mux.HandleFunc("POST "+k.route, func(w http.ResponseWriter, r *http.Request) { s.handleSubmit(w, r, k) })
	}
	s.mux.HandleFunc("GET /v1/jobs", s.handleList)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleGet)
	s.mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// errQueueFull and errDraining classify enqueue refusals.
var (
	errQueueFull = errors.New("queue full")
	errDraining  = errors.New("server draining")
)

func (s *Server) enqueue(j *Job) error {
	s.qmu.Lock()
	defer s.qmu.Unlock()
	if s.draining {
		return errDraining
	}
	select {
	case s.queue <- j:
		return nil
	default:
		return errQueueFull
	}
}

// worker drains the queue until it is closed by Shutdown.
func (s *Server) worker() {
	defer s.workerWG.Done()
	for j := range s.queue {
		s.runJob(j)
	}
}

func (s *Server) runJob(j *Job) {
	ctx, in, ok := j.start(s.baseCtx, s.cfg.JobTimeout, s.now())
	if !ok {
		// Canceled while queued; already terminal and counted.
		return
	}
	s.journalStarted(j)
	s.running.Store(j.id, j)
	s.gRunning.Add(1)
	s.cfg.Logf("job %s: running (%d bytes, sha %s)", j.id, j.size, j.sha[:12])
	env := RunEnv{Cache: s.cfg.Cache, Sched: s.sched, Stages: new(fits.StageTimer), Progress: j.setProgress, Truncated: s.mTruncated.Inc}
	out, err := s.invokeRunner(ctx, j, in, env)
	// Persist the result, then journal the terminal record, both before
	// the job's new state is observable (the callback runs under the job
	// lock): a client that reads "done" is guaranteed a restart replays
	// "done" with the result on disk. A crash between result and record
	// replays the job as interrupted (pessimistic but honest), never as
	// done-with-missing-result.
	state, elapsed := j.finish(out, err, s.now(), func(state, errStr string) {
		if state == StateDone && out != nil {
			s.persistResult(j, out.ResultJSON)
		}
		s.journalFinished(j, state, errStr)
	})
	for _, st := range stagetime.Stages() {
		if ns := env.Stages.WallNanos(st); ns > 0 {
			s.hStage[st].Observe(float64(ns) / 1e9)
		}
	}
	s.gRunning.Add(-1)
	s.running.Delete(j.id)
	s.hDuration.Observe(elapsed.Seconds())
	s.lat.observe(elapsed)
	switch state {
	case StateDone:
		s.mCompleted.Inc()
		if out != nil && out.Diff != nil {
			s.observeDiff(out.Diff)
		}
		if out != nil && out.Corpus != nil {
			s.observeCorpus(out.Corpus)
		}
	case StateCanceled:
		s.mCanceled.Inc()
	default:
		s.mFailed.Inc()
	}
	s.cfg.Logf("job %s: %s after %s", j.id, state, elapsed.Round(time.Millisecond))
	s.store.markTerminal(j)
}

// panicError wraps a panic recovered from a job runner: the recovered
// value plus the goroutine stack at the panic site, which becomes the
// job's error text so a hostile image is diagnosable after the fact.
type panicError struct {
	val   any
	stack []byte
}

func (e *panicError) Error() string {
	return fmt.Sprintf("analysis panicked: %v\n%s", e.val, e.stack)
}

// invokeRunner runs the job through the configured Runner and confines
// any panic to the calling job: the worker goroutine survives, the job
// fails with the captured stack, and the daemon keeps serving. Without
// this, one hostile image in internal/binimg's decode path would take
// down every queued job with it.
func (s *Server) invokeRunner(ctx context.Context, j *Job, in [][]byte, env RunEnv) (out *RunOutput, err error) {
	defer func() {
		if r := recover(); r != nil {
			s.mPanics.Inc()
			out = nil
			err = &panicError{val: r, stack: debug.Stack()}
			s.cfg.Logf("job %s: panic isolated: %v", j.id, r)
		}
	}()
	return s.cfg.Runner(ctx, j.kind, in, j.spec, env)
}

// observeDiff folds one completed diff's diagnostics into the metrics.
func (s *Server) observeDiff(d *DiffStats) {
	s.diffReuse.Store(math.Float64bits(d.ReuseRatio))
	s.hDiffStage["analyze_old"].Observe(d.Timings.AnalyzeOld.Seconds())
	s.hDiffStage["scan_old"].Observe(d.Timings.ScanOld.Seconds())
	s.hDiffStage["analyze_new"].Observe(d.Timings.AnalyzeNew.Seconds())
	s.hDiffStage["scan_new"].Observe(d.Timings.ScanNew.Seconds())
	s.hDiffStage["align"].Observe(d.Timings.Align.Seconds())
}

// observeCorpus folds one completed corpus scan's diagnostics into the
// metrics.
func (s *Server) observeCorpus(c *CorpusStats) {
	s.mCorpusJobs.Inc()
	s.mCorpusBinaries.Add(uint64(c.Binaries))
	s.mCorpusCross.Add(uint64(c.CrossAlerts))
	s.hCorpusRounds.Observe(float64(c.Rounds))
}

// janitor periodically sweeps expired results so memory is reclaimed even
// when the API is idle.
func (s *Server) janitor() {
	defer s.janitorWG.Done()
	period := s.cfg.StoreTTL / 4
	if period <= 0 || period > 30*time.Second {
		period = 30 * time.Second
	}
	t := time.NewTicker(period)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			s.store.sweep()
		case <-s.stop:
			return
		}
	}
}

// Shutdown drains the server: intake stops immediately (submissions get
// 503, /healthz degrades), jobs still queued are canceled, and in-flight
// jobs may finish until ctx expires — then their contexts are canceled and
// Shutdown waits for the workers to acknowledge. It returns nil on a clean
// drain and ctx.Err() when the deadline forced cancellation. Shutdown is
// idempotent; concurrent calls both wait.
func (s *Server) Shutdown(ctx context.Context) error {
	s.qmu.Lock()
	already := s.draining
	s.draining = true
	if !already {
		// Cancel everything still queued, then close the channel so idle
		// workers exit. Workers mid-job keep running.
		for {
			select {
			case j := <-s.queue:
				if terminal, _ := j.requestCancel(s.now()); terminal {
					s.mCanceled.Inc()
					s.store.markTerminal(j)
					s.journalFinished(j, StateCanceled, "canceled")
				}
				continue
			default:
			}
			break
		}
		close(s.queue)
		close(s.stop)
	}
	s.qmu.Unlock()

	done := make(chan struct{})
	go func() {
		s.workerWG.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
		// Deadline passed: mark in-flight jobs as drained (so they report
		// canceled, not failed) and hard-cancel the shared base context.
		s.running.Range(func(_, v any) bool {
			v.(*Job).markDrained()
			return true
		})
		s.baseCancel()
		<-done
	}
	s.baseCancel()
	s.janitorWG.Wait()
	// Workers are done, so no appends remain in flight; only the first
	// Shutdown closes the journal and releases the data-dir lock
	// (concurrent calls both waited above).
	if !already && s.journal != nil {
		s.journal.Close()
	}
	if !already && s.persist != nil {
		s.persist.Close()
	}
	return err
}

// Close abruptly releases the server's persistence handles — the journal
// fd and the data-dir lock — without draining workers or canceling jobs.
// It is the in-process analogue of kill -9 for crash tests: everything
// fsynced so far stays on disk, anything in flight is abandoned, and a
// new Server can immediately open the same data dir. Appends after Close
// fail cleanly (best-effort journal writes log and count the error).
// Idempotent; safe alongside a later Shutdown, whose own closes no-op.
//
//fitslint:ignore testonly the crash-recovery tests' kill -9; fitsd itself always drains through Shutdown
func (s *Server) Close() error {
	if s.journal != nil {
		s.journal.Close()
	}
	if s.persist != nil {
		return s.persist.Close()
	}
	return nil
}

// ---- handlers ----

// accept stores, enqueues and journals a prepared job, writing the 202
// (or the backpressure refusal) to w. The backpressure path touches no
// disk — a loaded server refuses cheaply — and the 202 is written only
// after the accepted record is durable, so a crash at any point either
// loses a job the client was never promised or keeps one it was. sums
// are the digests of the job's inputs in.
func (s *Server) accept(w http.ResponseWriter, j *Job, in [][]byte, sums []modelcache.Hash) {
	s.store.add(j)
	if err := s.enqueue(j); err != nil {
		s.store.remove(j.id)
		if err == errDraining {
			writeErr(w, http.StatusServiceUnavailable, "server is draining")
			return
		}
		s.mRejected.Inc()
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
		writeErr(w, http.StatusTooManyRequests,
			fmt.Sprintf("job queue is full (depth %d); retry later", s.cfg.QueueDepth))
		return
	}
	if err := s.journalAccept(j, in, sums); err != nil {
		// The job may already be in a worker; cancel it instead of
		// acknowledging a submission the journal cannot protect. Replay
		// drops the orphaned started/finished records it may still write.
		s.mPersistErrors.Inc()
		if terminal, _ := j.requestCancel(s.now()); terminal {
			s.mCanceled.Inc()
			s.store.markTerminal(j)
		}
		s.cfg.Logf("job %s: refused, journal append failed: %v", j.id, err)
		writeErr(w, http.StatusInternalServerError,
			fmt.Sprintf("cannot persist job acceptance: %v", err))
		return
	}
	s.mAccepted.Inc()
	s.cfg.Logf("job %s: queued (%d bytes)", j.id, j.size)
	w.Header().Set("Location", "/v1/jobs/"+j.id)
	writeJSON(w, http.StatusAccepted, SubmitResponse{
		ID: j.id, Location: "/v1/jobs/" + j.id, State: StateQueued,
	})
}

// completeFromDisk finishes a submission whose result already exists in
// the on-disk store: the job is born terminal, its result is the stored
// bytes, and no worker runs. The journal still records it so the job ID
// survives a further restart; sums are the digests of the job's inputs.
func (s *Server) completeFromDisk(w http.ResponseWriter, j *Job, payload []byte, sums []modelcache.Hash) {
	now := s.now()
	j.mu.Lock()
	j.state = StateDone
	j.result = payload
	j.in = nil
	j.finished = now
	j.mu.Unlock()
	key := j.diskKey
	j.loadResult = func() []byte { return s.diskLookup(key) }
	s.store.add(j)
	s.store.markTerminal(j)
	s.mDiskHits.Inc()
	s.journalDone(j, sums)
	s.cfg.Logf("job %s: served from disk store (%d bytes, sha %s)", j.id, j.size, j.sha[:12])
	w.Header().Set("Location", "/v1/jobs/"+j.id)
	writeJSON(w, http.StatusAccepted, SubmitResponse{
		ID: j.id, Location: "/v1/jobs/" + j.id, State: StateDone,
	})
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	jobs := s.store.list()
	// ?sha= narrows the listing to jobs of one submission identity (the
	// image hash, or the pair hash for diffs); clients use it to recover
	// a job they submitted but whose 202 a network failure ate.
	sha := r.URL.Query().Get("sha")
	resp := ListResponse{Jobs: make([]JobStatus, 0, len(jobs))}
	for _, j := range jobs {
		if sha != "" && j.sha != sha {
			continue
		}
		resp.Jobs = append(resp.Jobs, j.Snapshot(false))
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	j, ok := s.store.get(r.PathValue("id"))
	if !ok {
		writeErr(w, http.StatusNotFound, "no such job (it may have expired)")
		return
	}
	writeJSON(w, http.StatusOK, j.Snapshot(true))
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j, ok := s.store.get(r.PathValue("id"))
	if !ok {
		writeErr(w, http.StatusNotFound, "no such job (it may have expired)")
		return
	}
	b := j.resultBytes()
	if b == nil {
		st := j.Snapshot(false)
		switch {
		case st.State == StateFailed && st.Reason == ReasonCorrupt:
			// The submitted image itself is malformed: a permanent failure
			// of the input, not a transient one of the job.
			writeErr(w, http.StatusUnprocessableEntity, "firmware image is corrupt: "+st.Error)
		case st.State == StateDone:
			// Recovered job whose on-disk result vanished or failed its
			// checksum after the journal said done.
			writeErr(w, http.StatusInternalServerError,
				"result unavailable: the on-disk copy is missing or corrupt; resubmit to recompute")
		default:
			writeErr(w, http.StatusConflict, fmt.Sprintf("job is %s, not done", st.State))
		}
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(b)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.store.get(r.PathValue("id"))
	if !ok {
		writeErr(w, http.StatusNotFound, "no such job (it may have expired)")
		return
	}
	terminalNow, changed := j.requestCancel(s.now())
	if terminalNow {
		s.mCanceled.Inc()
		s.store.markTerminal(j)
		s.journalFinished(j, StateCanceled, "canceled")
	}
	if !changed && !TerminalState(j.currentState()) {
		writeErr(w, http.StatusConflict, "job cannot be canceled")
		return
	}
	s.cfg.Logf("job %s: cancel requested", j.id)
	writeJSON(w, http.StatusOK, j.Snapshot(false))
}

// isDraining reports whether Shutdown has stopped intake.
func (s *Server) isDraining() bool {
	s.qmu.Lock()
	defer s.qmu.Unlock()
	return s.draining
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	draining := s.isDraining()
	code := http.StatusOK
	status := "ok"
	if draining {
		code = http.StatusServiceUnavailable
		status = "draining"
	}
	writeJSON(w, code, HealthResponse{Status: status, Draining: draining})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var buf bytes.Buffer
	s.reg.WriteText(&buf)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	w.Write(buf.Bytes())
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		http.Error(w, "encoding response: "+err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(b)
	w.Write([]byte("\n"))
}

func writeErr(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, ErrorResponse{Error: msg})
}
