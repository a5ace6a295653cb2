package server

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"fits/internal/diskstore"
	"fits/internal/modelcache"
	"fits/internal/optbuild"
)

// persist.go glues the server to its durability layer (internal/diskstore):
// computing the on-disk identity of a submission, journaling job
// transitions before they are acknowledged, and replaying the journal at
// boot so no acknowledged job is ever lost to a crash.
//
// The crash contract, in journal terms:
//
//	accepted, no started   → the job never ran; re-enqueue it verbatim
//	                         (firmware bytes come back from the blob store)
//	started, no finished   → the job was mid-run at the crash; report it
//	                         interrupted (terminal, retryable)
//	finished               → recreate the terminal record; a done job's
//	                         result is served from the disk store on demand
//
// Every disk entry is checksummed; anything corrupt is quarantined by the
// diskstore layer and the job it belonged to degrades to a miss or a
// clean failure — never to wrong bytes.

// jobKey computes the content address of a submission in the on-disk
// result store. It reuses the model cache's identity scheme — SHA-256 of
// every input plus the analysis-config epoch — with the normalized option
// spec as the config string, so identical bytes under identical options
// map to one entry across restarts, and any pipeline-semantics bump
// (modelcache.ConfigVersion) invalidates the lot.
func jobKey(kind string, spec optbuild.Spec, sums ...modelcache.Hash) string {
	specJSON, err := json.Marshal(spec)
	if err != nil {
		// Spec is a plain struct; marshal cannot fail. Keep a defensive
		// fallback that still yields a usable (if conservative) key.
		specJSON = []byte("unmarshalable")
	}
	// Kind-prefix the key so a packed corpus and a plain image with equal
	// bytes and options never share a disk entry.
	k := "job"
	if kind != "" {
		k = kind
	}
	return modelcache.Key(k, string(specJSON), sums...)
}

// journalAccept appends the job's accepted record (and its input blobs,
// named by their digests sums) to the durability layer. It must succeed
// before the 202 is written: an acknowledged job that is not journaled
// would be lost by a crash, which is the one outcome this subsystem exists
// to prevent.
func (s *Server) journalAccept(j *Job, in [][]byte, sums []modelcache.Hash) error {
	if s.journal == nil {
		return nil
	}
	shas := hexSums(sums)
	for i, b := range in {
		if err := s.persist.PutBlob(shas[i], b); err != nil {
			return fmt.Errorf("persisting firmware blob: %w", err)
		}
	}
	rec, err := acceptedRecord(j, shas)
	if err != nil {
		return err
	}
	return s.journal.Append(rec)
}

// acceptedRecord is the journal's accepted record of j, naming its inputs
// by blob hash. The record has room for two inputs, the most any job kind
// takes.
func acceptedRecord(j *Job, shas []string) (diskstore.Record, error) {
	specJSON, err := json.Marshal(j.spec)
	if err != nil {
		return diskstore.Record{}, err
	}
	rec := diskstore.Record{
		Op: diskstore.OpAccepted, ID: j.id, Seq: j.seq, Kind: j.kind,
		SHA: shas[0], Size: j.size, Spec: specJSON, Key: j.diskKey,
	}
	if len(shas) > 1 {
		rec.SHA2 = shas[1]
	}
	return rec, nil
}

// journalStarted marks the job as picked up by a worker. Best-effort: if
// the append fails the job still runs; a crash would then replay it as
// queued (re-run) instead of interrupted, which loses no information.
func (s *Server) journalStarted(j *Job) {
	s.journalBestEffort(j, diskstore.Record{Op: diskstore.OpStarted, ID: j.id})
}

// journalFinished records the terminal outcome. Best-effort: on failure
// the next boot replays the job as interrupted rather than terminal,
// which is still never-lost, merely pessimistic.
func (s *Server) journalFinished(j *Job, state, errStr string) {
	s.journalBestEffort(j, diskstore.Record{Op: diskstore.OpFinished, ID: j.id, State: state, Error: errStr})
}

// journalDone records a disk-hit job — born terminal, never run — so its
// ID survives a restart: an accepted record (without blobs, since replay
// never re-runs a finished job) and the done record, in one append and
// one fsync. A crash that tears the pair keeps at most the accepted
// record, which replays as a job accepted and never finished. Best-effort.
func (s *Server) journalDone(j *Job, sums []modelcache.Hash) {
	if acc, err := acceptedRecord(j, hexSums(sums)); err == nil {
		s.journalBestEffort(j, acc, diskstore.Record{Op: diskstore.OpFinished, ID: j.id, State: StateDone})
	}
}

// journalBestEffort appends records the job does not depend on, in one
// batch: a failure is counted and logged.
func (s *Server) journalBestEffort(j *Job, recs ...diskstore.Record) {
	if s.journal == nil {
		return
	}
	if err := s.journal.Append(recs...); err != nil {
		s.mPersistErrors.Inc()
		s.cfg.Logf("job %s: journal %s append failed: %v", j.id, recs[len(recs)-1].Op, err)
	}
}

// hexSums spells input digests the way blob names and journal records do.
func hexSums(sums []modelcache.Hash) []string {
	shas := make([]string, len(sums))
	for i, sum := range sums {
		shas[i] = hex.EncodeToString(sum[:])
	}
	return shas
}

// persistResult writes a completed job's result JSON into the disk store
// under its content address. Best-effort: a failure costs future disk
// hits, not correctness.
func (s *Server) persistResult(j *Job, resultJSON []byte) {
	if s.persist == nil || j.diskKey == "" {
		return
	}
	if err := s.persist.Put(j.diskKey, resultJSON); err != nil {
		s.mPersistErrors.Inc()
		s.cfg.Logf("job %s: persisting result failed: %v", j.id, err)
	}
}

// diskLookup serves a submission from the on-disk result store when the
// same bytes under the same options completed before (this run or any
// earlier one). A corrupt entry has been quarantined by Get and reads as
// a miss.
func (s *Server) diskLookup(key string) []byte {
	if s.persist == nil {
		return nil
	}
	payload, err := s.persist.Get(key)
	if err != nil {
		s.cfg.Logf("disk store: %v", err)
		return nil
	}
	return payload
}

// replayState aggregates one job's journal records.
type replayState struct {
	acc     diskstore.Record
	started bool
	fin     *diskstore.Record
}

// replayJournal reconstructs jobs from the surviving records, registers
// them in the in-memory store, and returns the jobs to re-enqueue plus
// the compacted journal contents. Aggregation is genuinely
// order-independent per job: accept() enqueues before it journals, so a
// fast worker can append started (even finished) ahead of the handler's
// accepted record — a first pass indexes the accepted records, a second
// applies the transitions. A started or finished record whose job was
// never accepted (the handler's append failed and the job was refused)
// is dropped.
func (s *Server) replayJournal(recs []diskstore.Record) (requeue []*Job, compact []diskstore.Record) {
	byID := map[string]*replayState{}
	var order []string
	var maxSeq uint64
	for _, rec := range recs {
		if rec.Op != diskstore.OpAccepted {
			continue
		}
		if _, ok := byID[rec.ID]; !ok {
			byID[rec.ID] = &replayState{acc: rec}
			order = append(order, rec.ID)
		}
		if rec.Seq > maxSeq {
			maxSeq = rec.Seq
		}
	}
	for _, rec := range recs {
		switch rec.Op {
		case diskstore.OpStarted:
			if st, ok := byID[rec.ID]; ok {
				st.started = true
			}
		case diskstore.OpFinished:
			if st, ok := byID[rec.ID]; ok {
				fin := rec
				st.fin = &fin
			}
		}
	}
	s.seq.Store(maxSeq)

	for _, id := range order {
		st := byID[id]
		j := s.recoverJob(st)
		s.store.add(j)
		switch j.currentState() {
		case StateQueued:
			requeue = append(requeue, j)
			compact = append(compact, st.acc)
		default:
			s.store.markTerminal(j)
			state, errStr := j.currentState(), j.snapshotError()
			compact = append(compact, st.acc, diskstore.Record{
				Op: diskstore.OpFinished, ID: j.id, State: state, Error: errStr,
			})
		}
	}
	return requeue, compact
}

// recoverJob rebuilds one job from its aggregated journal records.
func (s *Server) recoverJob(st *replayState) *Job {
	acc := st.acc
	spec, specErr := recordSpec(acc.Spec)
	j := &Job{
		id:        acc.ID,
		seq:       acc.Seq,
		sha:       recordIdentity(acc),
		size:      acc.Size,
		kind:      acc.Kind,
		spec:      spec,
		diskKey:   acc.Key,
		submitted: s.now(),
	}
	// The job is unpublished, but take its (fresh, uncontended) lock so
	// the guarded-field invariant holds by construction.
	j.mu.Lock()
	defer j.mu.Unlock()
	switch {
	case st.fin != nil:
		j.state = st.fin.State
		if !TerminalState(j.state) {
			// A finished record always carries a terminal state; tolerate
			// hand-edited logs by degrading to interrupted.
			j.state = StateInterrupted
		}
		j.err = st.fin.Error
		j.finished = j.submitted
		if j.state == StateDone {
			key := acc.Key
			j.loadResult = func() []byte { return s.diskLookup(key) }
		}
	case st.started:
		j.state = StateInterrupted
		j.err = "interrupted: daemon restarted while the job was running; resubmit to retry"
		j.finished = j.submitted
		s.mInterrupted.Inc()
	case specErr != nil:
		// Accepted, never started, but its options do not decode under
		// this build's schema: running it would store a result computed
		// under other options at the disk key of the journaled ones.
		j.state = StateFailed
		j.err = fmt.Sprintf("options unreadable after restart: %v", specErr)
		j.finished = j.submitted
	default:
		// Accepted, never started: bring the inputs back from the blob
		// store and requeue. The blobs were fsynced before the accepted
		// record, so a miss here means on-disk corruption — fail cleanly.
		in, err := s.recoverBlobs(acc)
		if err != nil {
			j.state = StateFailed
			j.err = fmt.Sprintf("firmware bytes unrecoverable after restart: %v", err)
			j.finished = j.submitted
			break
		}
		j.state = StateQueued
		j.in = in
	}
	return j
}

// recordSpec decodes and normalizes the options of an accepted record.
// Unknown fields are an error, so a record written by a build with another
// optbuild.Spec schema is refused rather than read in part.
func recordSpec(raw json.RawMessage) (optbuild.Spec, error) {
	var spec optbuild.Spec
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		return optbuild.Spec{}, err
	}
	if err := spec.Normalize(); err != nil {
		return optbuild.Spec{}, err
	}
	return spec, nil
}

// recordShas lists the blob hashes of an accepted record's inputs.
func recordShas(acc diskstore.Record) []string {
	if acc.SHA2 == "" {
		return []string{acc.SHA}
	}
	return []string{acc.SHA, acc.SHA2}
}

// recordIdentity recomputes a journaled job's SubmissionSHA from its
// inputs' blob hashes. A record whose hashes do not parse (a hand-edited
// log) keeps its first hash.
func recordIdentity(acc diskstore.Record) string {
	shas := recordShas(acc)
	sums := make([]modelcache.Hash, len(shas))
	for i, sha := range shas {
		b, err := hex.DecodeString(sha)
		if err != nil || len(b) != len(sums[i]) {
			return acc.SHA
		}
		copy(sums[i][:], b)
	}
	return identity(sums)
}

// recoverBlobs loads a replayed job's inputs from the blob store.
func (s *Server) recoverBlobs(acc diskstore.Record) ([][]byte, error) {
	shas := recordShas(acc)
	in := make([][]byte, len(shas))
	for i, sha := range shas {
		b, err := s.persist.GetBlob(sha)
		if err != nil {
			return nil, err
		}
		if b == nil {
			return nil, fmt.Errorf("blob %s missing", sha)
		}
		in[i] = b
	}
	return in, nil
}

// snapshotError reads the job's error string under its lock.
func (j *Job) snapshotError() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}
