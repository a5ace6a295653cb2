package diskstore

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"

	"fits/internal/faultinj"
)

// journal.go is the write-ahead log of the fitsd job queue. One record is
// appended (and fsynced) per job transition *before* the transition is
// acknowledged to the outside world: Accepted before the 202 response,
// Started before the runner is invoked, Finished before the terminal
// state is served. On boot the server replays the surviving records and
// reconstructs every acknowledged job: accepted-but-never-started jobs
// are re-enqueued, started-but-never-finished jobs are marked
// interrupted (retryable), finished jobs reappear terminal.
//
// Framing is length + CRC32 + JSON per record; one Append may write
// several records in one write and one fsync. A crash can tear only the
// final append (appends are sequential and fsynced); replay verifies each
// frame and truncates the file at the first bad one, so a torn tail —
// which by construction was never acknowledged — is dropped cleanly
// rather than poisoning the log, and the complete frames before it in the
// same append survive as if appended alone.

// Journal operation kinds.
const (
	OpAccepted = "accepted"
	OpStarted  = "started"
	OpFinished = "finished"
)

// Failpoint names crossed by the append path.
const (
	PointJournalAppend = "journal.append"
	PointJournalFsync  = "journal.fsync"
)

// maxRecordLen bounds one framed record; anything larger is treated as a
// torn or corrupt frame.
const maxRecordLen = 1 << 24

// Record is one journal entry. Accepted records carry the job identity
// and enough to re-run it (the spec plus blob hashes); Started and
// Finished records reference the job by ID.
type Record struct {
	Op   string `json:"op"`
	ID   string `json:"id"`
	Seq  uint64 `json:"seq,omitempty"`
	Kind string `json:"kind,omitempty"` // "" analysis, "diff" evolution diff, "corpus" corpus scan
	// SHA and SHA2 name the firmware blobs (hex SHA-256); SHA2 is set for
	// diff jobs only.
	SHA  string          `json:"sha,omitempty"`
	SHA2 string          `json:"sha2,omitempty"`
	Size int             `json:"size,omitempty"`
	Spec json.RawMessage `json:"spec,omitempty"`
	// Key is the diskstore result key of the job, present on accepted
	// records so replay can serve recovered done jobs from disk.
	Key string `json:"key,omitempty"`
	// State and Error describe the terminal outcome on finished records.
	State string `json:"state,omitempty"`
	Error string `json:"error,omitempty"`
}

// Journal is an append-only, fsync-per-record log.
type Journal struct {
	mu   sync.Mutex
	f    *os.File // guarded by mu
	path string
	fp   *faultinj.Set
}

// OpenJournal opens (creating if needed) the journal at path, replays the
// valid record prefix, truncates any torn tail, and returns the journal
// ready for appends together with the surviving records.
func OpenJournal(path string, fp *faultinj.Set) (*Journal, []Record, error) {
	b, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, nil, fmt.Errorf("diskstore: journal: %w", err)
	}
	recs, valid := DecodeRecords(b)
	if valid < len(b) {
		// Torn tail from a crash mid-append: the bytes past the last valid
		// frame were never acknowledged, so dropping them loses nothing.
		if err := os.Truncate(path, int64(valid)); err != nil {
			return nil, nil, fmt.Errorf("diskstore: journal truncate: %w", err)
		}
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("diskstore: journal: %w", err)
	}
	return &Journal{f: f, path: path, fp: fp}, recs, nil
}

// Append frames the records and writes and fsyncs them as one batch. When
// Append returns nil every record is durable; callers acknowledge the
// transition only after. A crash mid-batch keeps a prefix of its records,
// exactly as if they had been appended one by one.
func (j *Journal) Append(recs ...Record) error {
	var batch []byte
	for _, rec := range recs {
		frame, err := EncodeRecord(rec)
		if err != nil {
			return err
		}
		batch = append(batch, frame...)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return fmt.Errorf("diskstore: journal: append after close")
	}
	if err := j.fp.Hit(PointJournalAppend); err != nil {
		return err
	}
	if _, err := j.f.Write(batch); err != nil {
		return fmt.Errorf("diskstore: journal: %w", err)
	}
	if err := j.fp.Hit(PointJournalFsync); err != nil {
		return err
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("diskstore: journal: %w", err)
	}
	return nil
}

// Rewrite compacts the journal to exactly recs, atomically: the new log is
// written and fsynced beside the old one and renamed over it, then the
// append handle moves to the new file. Used after boot replay so the log
// does not grow without bound across restarts.
func (j *Journal) Rewrite(recs []Record) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	tmp := j.path + ".compact"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("diskstore: journal rewrite: %w", err)
	}
	for _, rec := range recs {
		frame, err := EncodeRecord(rec)
		if err != nil {
			f.Close()
			os.Remove(tmp)
			return err
		}
		if _, err := f.Write(frame); err != nil {
			f.Close()
			os.Remove(tmp)
			return fmt.Errorf("diskstore: journal rewrite: %w", err)
		}
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("diskstore: journal rewrite: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("diskstore: journal rewrite: %w", err)
	}
	if err := os.Rename(tmp, j.path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("diskstore: journal rewrite: %w", err)
	}
	syncDir(filepath.Dir(j.path))
	if j.f != nil {
		j.f.Close()
	}
	j.f, err = os.OpenFile(j.path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("diskstore: journal rewrite: %w", err)
	}
	return nil
}

// Size reports the current journal length in bytes; tests use it to mark
// durable prefixes.
func (j *Journal) Size() (int64, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	st, err := os.Stat(j.path)
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}

// Close releases the append handle. Further Appends fail.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := j.f.Close()
	j.f = nil
	return err
}

// EncodeRecord frames one record: u32 little-endian payload length, u32
// CRC-32 (IEEE) of the payload, then the JSON payload.
func EncodeRecord(rec Record) ([]byte, error) {
	payload, err := json.Marshal(rec)
	if err != nil {
		return nil, fmt.Errorf("diskstore: journal: %w", err)
	}
	frame := make([]byte, 0, 8+len(payload))
	frame = binary.LittleEndian.AppendUint32(frame, uint32(len(payload)))
	frame = binary.LittleEndian.AppendUint32(frame, crc32.ChecksumIEEE(payload))
	return append(frame, payload...), nil
}

// DecodeRecords parses the longest valid record prefix of b, returning
// the records and the byte length of that prefix. Scanning stops at the
// first incomplete, oversized, CRC-failing, or unparsable frame — the
// torn tail a crash mid-append leaves.
func DecodeRecords(b []byte) ([]Record, int) {
	var recs []Record
	off := 0
	for {
		if off+8 > len(b) {
			return recs, off
		}
		n := binary.LittleEndian.Uint32(b[off:])
		sum := binary.LittleEndian.Uint32(b[off+4:])
		if n > maxRecordLen || off+8+int(n) > len(b) {
			return recs, off
		}
		payload := b[off+8 : off+8+int(n)]
		if crc32.ChecksumIEEE(payload) != sum {
			return recs, off
		}
		var rec Record
		if err := json.Unmarshal(payload, &rec); err != nil {
			return recs, off
		}
		recs = append(recs, rec)
		off += 8 + int(n)
	}
}
