// Package diskstore is fitsd's durability layer: a content-addressed
// on-disk result store, a blob store for submitted firmware bytes, and a
// write-ahead journal for the job queue (journal.go).
//
// The result store lives beneath the server's in-memory LRU+TTL store and
// shares the model cache's identity scheme — SHA-256 of the input bytes
// plus the analysis-config epoch — so a resubmission of known bytes under
// the same options resolves to the same on-disk entry across restarts.
//
// Durability rules, applied uniformly:
//
//   - Every write is atomic: encode to a temp file in <dir>/tmp, fsync,
//     rename into place, fsync the parent directory. Readers therefore
//     see either the previous entry or the complete new one, never a
//     partial write; a crash mid-write leaves only a temp file, which the
//     next Open sweeps away.
//   - Every entry carries a checksum footer over its full contents. A
//     corrupt or truncated entry is detected on read, moved into
//     <dir>/quarantine for post-mortem, and reported as a miss — corrupt
//     bytes are never served.
//
// All fault-sensitive steps cross faultinj failpoints (PointWrite,
// PointFsync, PointRename, ...) so the crash-recovery tests can kill an
// operation at any stage and assert the invariants above.
package diskstore

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"

	"fits/internal/faultinj"
)

// Failpoint names crossed by the store's write and read paths.
const (
	PointWrite     = "diskstore.write"      // payload write into the temp file
	PointFsync     = "diskstore.fsync"      // fsync of the temp file
	PointRename    = "diskstore.rename"     // rename of temp → final ("crash after write, before rename")
	PointBlobWrite = "diskstore.blob.write" // firmware blob write
	PointRead      = "diskstore.read"       // entry read
)

// ErrCorrupt marks an on-disk entry whose checksum, framing, or identity
// failed verification; the entry has been quarantined.
var ErrCorrupt = errors.New("diskstore: corrupt entry")

// entryMagic and entryVersion frame one result entry on disk.
var entryMagic = []byte("FDSE1")

const (
	entryVersion  = 1
	maxKeyLen     = 1 << 16
	maxPayloadLen = 1 << 30
	footerLen     = sha256.Size
)

// Store is the on-disk result and blob store rooted at one directory.
// Store methods are safe for concurrent use.
type Store struct {
	dir string
	fp  *faultinj.Set

	mu      sync.Mutex
	entries int      // result entries on disk; guarded by mu
	lock    *os.File // held flock on <dir>/.lock; guarded by mu

	writes      atomic.Uint64
	hits        atomic.Uint64
	misses      atomic.Uint64
	quarantined atomic.Uint64
}

// Stats is a point-in-time snapshot of store activity since Open.
type Stats struct {
	Entries     int    // result entries currently on disk
	Writes      uint64 // successful Put calls
	Hits        uint64 // Get calls served from disk
	Misses      uint64 // Get calls with no (valid) entry
	Quarantined uint64 // corrupt entries moved aside instead of served
}

// Open prepares the directory layout (results/, blobs/, quarantine/,
// tmp/), sweeps temp files abandoned by a crash, and counts the surviving
// result entries. fp may be nil.
//
// The directory is single-owner: Open takes an exclusive flock on
// <dir>/.lock and fails if another live process holds it. Without the
// lock, a second daemon's boot compaction would silently orphan the
// journal file the first one is appending to — acknowledged jobs would
// vanish on the next restart.
func Open(dir string, fp *faultinj.Set) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("diskstore: %w", err)
	}
	lock, err := os.OpenFile(filepath.Join(dir, ".lock"), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("diskstore: %w", err)
	}
	if err := syscall.Flock(int(lock.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		lock.Close()
		return nil, fmt.Errorf("diskstore: %s is in use by another process: %w", dir, err)
	}
	for _, sub := range []string{"results", "blobs", "quarantine", "tmp"} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			lock.Close()
			return nil, fmt.Errorf("diskstore: %w", err)
		}
	}
	// A crash mid-Put leaves a temp file but never a partial entry; the
	// temp dir is ours alone, so everything in it is garbage.
	tmps, err := os.ReadDir(filepath.Join(dir, "tmp"))
	if err != nil {
		lock.Close()
		return nil, fmt.Errorf("diskstore: %w", err)
	}
	for _, e := range tmps {
		os.Remove(filepath.Join(dir, "tmp", e.Name()))
	}
	ents, err := os.ReadDir(filepath.Join(dir, "results"))
	if err != nil {
		lock.Close()
		return nil, fmt.Errorf("diskstore: %w", err)
	}
	return &Store{dir: dir, fp: fp, entries: len(ents), lock: lock}, nil
}

// Close releases the directory lock so another process can take over the
// data dir. Safe to call more than once; the store's read/write methods
// must not be used afterwards.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.lock == nil {
		return nil
	}
	err := s.lock.Close() // closing the fd releases the flock
	s.lock = nil
	return err
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Stats snapshots the counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	n := s.entries
	s.mu.Unlock()
	return Stats{
		Entries:     n,
		Writes:      s.writes.Load(),
		Hits:        s.hits.Load(),
		Misses:      s.misses.Load(),
		Quarantined: s.quarantined.Load(),
	}
}

// entryName maps a key to its file name: the hex SHA-256 of the key, so
// arbitrary key strings (which embed config JSON) stay filesystem-safe.
func entryName(key string) string {
	h := sha256.Sum256([]byte(key))
	return hex.EncodeToString(h[:]) + ".fds"
}

// encodeEntry frames one result entry: magic, version, length-prefixed
// key and payload, and a SHA-256 footer over everything before it.
func encodeEntry(key string, payload []byte) []byte {
	b := make([]byte, 0, len(entryMagic)+1+8+len(key)+len(payload)+footerLen)
	b = append(b, entryMagic...)
	b = append(b, entryVersion)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(key)))
	b = append(b, key...)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(payload)))
	b = append(b, payload...)
	sum := sha256.Sum256(b)
	return append(b, sum[:]...)
}

// decodeEntry parses and verifies a framed entry, returning its key and
// payload. Any framing violation, length overrun, trailing garbage, or
// checksum mismatch yields ErrCorrupt.
func decodeEntry(b []byte) (key string, payload []byte, err error) {
	if len(b) < len(entryMagic)+1+8+footerLen {
		return "", nil, fmt.Errorf("%w: truncated header", ErrCorrupt)
	}
	if string(b[:len(entryMagic)]) != string(entryMagic) {
		return "", nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	off := len(entryMagic)
	if b[off] != entryVersion {
		return "", nil, fmt.Errorf("%w: unknown version %d", ErrCorrupt, b[off])
	}
	off++
	keyLen := binary.LittleEndian.Uint32(b[off:])
	off += 4
	if keyLen > maxKeyLen || off+int(keyLen)+4 > len(b) {
		return "", nil, fmt.Errorf("%w: key length %d out of range", ErrCorrupt, keyLen)
	}
	key = string(b[off : off+int(keyLen)])
	off += int(keyLen)
	payLen := binary.LittleEndian.Uint32(b[off:])
	off += 4
	if payLen > maxPayloadLen || off+int(payLen)+footerLen != len(b) {
		return "", nil, fmt.Errorf("%w: payload length %d out of range", ErrCorrupt, payLen)
	}
	payload = b[off : off+int(payLen)]
	off += int(payLen)
	sum := sha256.Sum256(b[:off])
	if string(sum[:]) != string(b[off:]) {
		return "", nil, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	return key, payload, nil
}

// Put durably stores payload under key. Completed results are write-once
// per key; a re-Put of the same key atomically replaces the entry.
func (s *Store) Put(key string, payload []byte) error {
	dst := filepath.Join(s.dir, "results", entryName(key))
	fresh := true
	if _, err := os.Stat(dst); err == nil {
		fresh = false
	}
	if err := s.writeAtomic(dst, encodeEntry(key, payload), PointWrite, PointFsync, PointRename); err != nil {
		return err
	}
	s.writes.Add(1)
	if fresh {
		s.mu.Lock()
		s.entries++
		s.mu.Unlock()
	}
	return nil
}

// Get returns the payload stored under key, or (nil, nil) on a miss. A
// corrupt entry is quarantined and reported as a miss with ErrCorrupt, so
// callers can count it; it is never returned as data.
func (s *Store) Get(key string) ([]byte, error) {
	if err := s.fp.Hit(PointRead); err != nil {
		return nil, err
	}
	path := filepath.Join(s.dir, "results", entryName(key))
	b, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		s.misses.Add(1)
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("diskstore: %w", err)
	}
	gotKey, payload, err := decodeEntry(b)
	if err == nil && gotKey != key {
		err = fmt.Errorf("%w: key mismatch (hash collision or tamper)", ErrCorrupt)
	}
	if err != nil {
		s.quarantine(path)
		s.misses.Add(1)
		return nil, err
	}
	s.hits.Add(1)
	return payload, nil
}

// PutBlob durably stores raw firmware bytes under sha, the hex SHA-256 the
// caller already holds for them; it is not recomputed. Existing blobs are
// not rewritten. A wrong sha stores a blob that GetBlob refuses.
func (s *Store) PutBlob(sha string, raw []byte) error {
	dst := filepath.Join(s.dir, "blobs", sha+".blob")
	if _, err := os.Stat(dst); err == nil {
		return nil
	}
	return s.writeAtomic(dst, raw, PointBlobWrite, PointFsync, PointRename)
}

// GetBlob returns the firmware bytes for a hex SHA-256, or (nil, nil) when
// absent. A blob whose contents no longer hash to its name is quarantined
// and reported as a miss with ErrCorrupt.
func (s *Store) GetBlob(sha string) ([]byte, error) {
	path := filepath.Join(s.dir, "blobs", sha+".blob")
	b, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("diskstore: %w", err)
	}
	sum := sha256.Sum256(b)
	if hex.EncodeToString(sum[:]) != sha {
		s.quarantine(path)
		return nil, fmt.Errorf("%w: blob %s fails its content hash", ErrCorrupt, sha)
	}
	return b, nil
}

// quarantine moves a corrupt file out of the serving path, preserving it
// for post-mortem. Move failures fall back to removal: a corrupt entry
// must never remain where it could be read again.
func (s *Store) quarantine(path string) {
	s.quarantined.Add(1)
	dst := filepath.Join(s.dir, "quarantine",
		filepath.Base(path)+"."+strconv.FormatUint(s.quarantined.Load(), 10))
	if err := os.Rename(path, dst); err != nil {
		os.Remove(path)
	}
	s.mu.Lock()
	if s.entries > 0 && filepath.Dir(path) == filepath.Join(s.dir, "results") {
		s.entries--
	}
	s.mu.Unlock()
}

// writeAtomic writes data to dst via temp file + fsync + rename + parent
// fsync, crossing the three named failpoints in order. On any failure the
// temp file is abandoned in tmp/ — the same debris a real crash leaves —
// and the destination is untouched.
func (s *Store) writeAtomic(dst string, data []byte, writePoint, fsyncPoint, renamePoint string) error {
	f, err := os.CreateTemp(filepath.Join(s.dir, "tmp"), "put-*")
	if err != nil {
		return fmt.Errorf("diskstore: %w", err)
	}
	tmp := f.Name()
	if err := s.fp.Hit(writePoint); err != nil {
		f.Close()
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return fmt.Errorf("diskstore: %w", err)
	}
	if err := s.fp.Hit(fsyncPoint); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("diskstore: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("diskstore: %w", err)
	}
	if err := s.fp.Hit(renamePoint); err != nil {
		return err
	}
	if err := os.Rename(tmp, dst); err != nil {
		return fmt.Errorf("diskstore: %w", err)
	}
	syncDir(filepath.Dir(dst))
	return nil
}

// syncDir fsyncs a directory so a rename into it survives power loss.
// Best-effort: some filesystems refuse directory fsync; the rename itself
// is still atomic there.
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	d.Sync()
	d.Close()
}
