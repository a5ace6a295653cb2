package server

import (
	"context"
	"errors"
	"sync"
	"time"

	"fits/internal/firmware"
	"fits/internal/optbuild"
)

// Job is the server-side record of one submission. It moves
// queued → running → {done, failed, canceled}; queued jobs may jump
// straight to canceled. All mutable fields are guarded by mu; handlers
// only ever see Snapshot copies.
type Job struct {
	id   string
	seq  uint64
	sha  string
	size int
	kind string // row of the job-kind table: "", KindDiff or KindCorpus; immutable
	spec optbuild.Spec
	// diskKey is the job's identity in the on-disk result store (content
	// hash + config epoch + options); empty when persistence is off.
	// Immutable after creation.
	diskKey string
	// loadResult lazily reads the result JSON of a crash-recovered done
	// job from the disk store, so boot replay does not pull every
	// historical result into memory. Immutable after creation.
	loadResult func() []byte

	mu        sync.Mutex
	state     string     // guarded by mu
	in        [][]byte   // the inputs, in envelope order; dropped once terminal; guarded by mu
	submitted time.Time  // guarded by mu
	started   time.Time  // guarded by mu
	finished  time.Time  // guarded by mu
	err       string     // guarded by mu
	reason    string     // failure classification (ReasonCorrupt, ReasonPanic); guarded by mu
	result    []byte     // guarded by mu
	cache     CacheDelta // guarded by mu
	progress  string     // latest runner progress line, cleared when terminal; guarded by mu
	// cancelRequested distinguishes a DELETE-initiated abort from a
	// timeout or server drain when classifying the runner's error.
	cancelRequested bool               // guarded by mu
	drained         bool               // guarded by mu
	cancel          context.CancelFunc // non-nil while running; guarded by mu
}

// start transitions queued → running and derives the job context: the
// server base context, capped by the server job timeout and the job's own
// requested timeout. The inputs are handed out under the lock so the
// worker never touches j.in unlocked. It returns false (and no context)
// when the job was canceled while queued.
func (j *Job) start(base context.Context, serverTimeout time.Duration, now time.Time) (context.Context, [][]byte, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateQueued {
		return nil, nil, false
	}
	var ctx context.Context
	var cancel context.CancelFunc
	if serverTimeout > 0 {
		ctx, cancel = context.WithTimeout(base, serverTimeout)
	} else {
		ctx, cancel = context.WithCancel(base)
	}
	if d := time.Duration(j.spec.Timeout); d > 0 {
		inner, innerCancel := context.WithTimeout(ctx, d)
		outerCancel := cancel
		ctx, cancel = inner, func() { innerCancel(); outerCancel() }
	}
	j.state = StateRunning
	j.started = now
	j.cancel = cancel
	return ctx, j.in, true
}

// finish records the runner outcome and classifies the terminal state,
// returning it with the run duration so callers need no unlocked reads of
// the timing fields. The durable callback (nil allowed) runs under the
// job lock after classification but before the terminal state becomes
// observable: runJob persists the result and journals the finished
// record there, so no client ever reads a terminal state that a restart
// could not reproduce from disk.
func (j *Job) finish(out *RunOutput, err error, now time.Time, durable func(state, errStr string)) (state string, elapsed time.Duration) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.cancel != nil {
		j.cancel()
		j.cancel = nil
	}
	j.in = nil
	j.progress = ""
	j.finished = now
	var pe *panicError
	switch {
	case err == nil:
		j.state = StateDone
		j.result = out.ResultJSON
		j.cache = out.Cache
	case errors.As(err, &pe):
		// A panic is never reclassified as a cancellation: the job died on
		// its own input, and the captured stack is the diagnosis.
		j.state = StateFailed
		j.reason = ReasonPanic
		j.err = err.Error()
	case j.cancelRequested || j.drained || errors.Is(err, context.Canceled):
		j.state = StateCanceled
		j.err = "canceled"
	case errors.Is(err, context.DeadlineExceeded):
		j.state = StateFailed
		j.err = "job timeout exceeded"
	case errors.Is(err, firmware.ErrCorrupt):
		j.state = StateFailed
		j.reason = ReasonCorrupt
		j.err = err.Error()
	default:
		j.state = StateFailed
		j.err = err.Error()
	}
	if durable != nil {
		durable(j.state, j.err)
	}
	return j.state, j.finished.Sub(j.started)
}

// requestCancel implements DELETE: a queued job is canceled on the spot
// (the worker later skips it); a running one has its context canceled and
// is classified when the runner returns. The first return reports whether
// the job transitioned to canceled *now*; the second whether the request
// did anything at all.
func (j *Job) requestCancel(now time.Time) (terminalNow, ok bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	switch j.state {
	case StateQueued:
		j.state = StateCanceled
		j.err = "canceled"
		j.cancelRequested = true
		j.finished = now
		j.in = nil
		return true, true
	case StateRunning:
		j.cancelRequested = true
		if j.cancel != nil {
			j.cancel()
		}
		return false, true
	}
	return false, false
}

// setProgress records the latest progress line from the job's runner; the
// next status snapshot reports it. No-op once the job is terminal (a slow
// runner goroutine may still emit after cancellation).
func (j *Job) setProgress(msg string) {
	j.mu.Lock()
	if j.state == StateRunning {
		j.progress = msg
	}
	j.mu.Unlock()
}

// markDrained tags a running job as aborted by server drain before its
// context is hard-canceled, so finish classifies it as canceled rather
// than failed.
func (j *Job) markDrained() {
	j.mu.Lock()
	j.drained = true
	j.mu.Unlock()
}

// Snapshot renders the job as its wire representation. Result bytes are
// shared, not copied; they are write-once.
func (j *Job) Snapshot(includeResult bool) JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	s := JobStatus{
		ID:          j.id,
		State:       j.state,
		Kind:        j.kind,
		SHA256:      j.sha,
		SizeBytes:   j.size,
		Options:     j.spec,
		SubmittedAt: j.submitted,
	}
	if !j.started.IsZero() {
		t := j.started
		s.StartedAt = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		s.FinishedAt = &t
		if !j.started.IsZero() {
			s.ElapsedMS = j.finished.Sub(j.started).Milliseconds()
		}
	}
	s.Error = j.err
	s.Reason = j.reason
	s.Progress = j.progress
	if j.state == StateDone {
		d := j.cache
		s.Cache = &d
		if includeResult {
			s.Result = j.resultLocked()
		}
	}
	return s
}

// resultBytes returns the stored result JSON, or nil if the job is not
// done (or its recovered on-disk result is unreadable).
func (j *Job) resultBytes() []byte {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateDone {
		return nil
	}
	return j.resultLocked()
}

// resultLocked resolves the result bytes, pulling a crash-recovered job's
// result from the disk store on first use. Callers hold j.mu.
func (j *Job) resultLocked() []byte {
	if j.result == nil && j.loadResult != nil {
		j.result = j.loadResult()
	}
	return j.result
}

// currentState reads the state under the lock.
func (j *Job) currentState() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}
