package diskstore

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fits/internal/faultinj"
)

func openStore(t *testing.T, fp *faultinj.Set) *Store {
	t.Helper()
	s, err := Open(t.TempDir(), fp)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestPutGetRoundTrip(t *testing.T) {
	s := openStore(t, nil)
	key := "job|v1|{\"scan\":true}|deadbeef"
	payload := []byte(`{"targets":[]}`)
	if err := s.Put(key, payload); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get(key)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("Get = %q, want %q", got, payload)
	}
	st := s.Stats()
	if st.Entries != 1 || st.Writes != 1 || st.Hits != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestGetMiss(t *testing.T) {
	s := openStore(t, nil)
	got, err := s.Get("absent")
	if err != nil || got != nil {
		t.Fatalf("miss = (%q, %v), want (nil, nil)", got, err)
	}
	if s.Stats().Misses != 1 {
		t.Fatalf("stats = %+v", s.Stats())
	}
}

// TestSurvivesReopen is the core durability property: results written by
// one Store are served by a fresh Store over the same directory.
func TestSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	s1, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := s1.Put("k", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s2.Get("k")
	if err != nil || !bytes.Equal(got, []byte("payload")) {
		t.Fatalf("reopened Get = (%q, %v)", got, err)
	}
	if s2.Stats().Entries != 1 {
		t.Fatalf("reopened stats = %+v", s2.Stats())
	}
}

// TestSingleOwnerLock: a data dir belongs to one Store at a time. A
// second Open while the lock is held fails loudly (two daemons sharing a
// dir would silently orphan each other's journal appends at compaction);
// Close releases the lock and the next Open succeeds.
func TestSingleOwnerLock(t *testing.T) {
	dir := t.TempDir()
	s1, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, nil); err == nil {
		t.Fatal("second Open on a locked dir succeeded")
	} else if !strings.Contains(err.Error(), "in use") {
		t.Fatalf("second Open err = %v, want an in-use message", err)
	}
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s1.Close(); err != nil {
		t.Fatalf("second Close not idempotent: %v", err)
	}
	s2, err := Open(dir, nil)
	if err != nil {
		t.Fatalf("Open after Close: %v", err)
	}
	s2.Close()
}

// TestCorruptEntryQuarantined flips one byte in every position of a
// stored entry in turn and asserts the store never serves the damaged
// bytes — each corruption is either still checksum-valid (impossible for
// a single flip under SHA-256) or quarantined as a miss.
func TestCorruptEntryQuarantined(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	key := "k"
	payload := []byte("result-bytes")
	if err := s.Put(key, payload); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "results", entryName(key))
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// A handful of representative positions: magic, version, key length,
	// payload body, checksum footer.
	for _, pos := range []int{0, len(entryMagic), len(entryMagic) + 1, len(orig) / 2, len(orig) - 1} {
		mut := append([]byte(nil), orig...)
		mut[pos] ^= 0xff
		if err := os.WriteFile(path, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := s.Get(key)
		if got != nil {
			t.Fatalf("pos %d: corrupt entry served: %q", pos, got)
		}
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("pos %d: err = %v, want ErrCorrupt", pos, err)
		}
		if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("pos %d: corrupt entry left in results/", pos)
		}
		// Restore for the next position.
		if err := os.WriteFile(path, orig, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if s.Stats().Quarantined == 0 {
		t.Fatal("no quarantines counted")
	}
	q, err := os.ReadDir(filepath.Join(dir, "quarantine"))
	if err != nil || len(q) == 0 {
		t.Fatalf("quarantine dir: %v entries, %v", len(q), err)
	}
}

// TestTruncatedEntryQuarantined truncates the entry at every length and
// asserts no prefix is ever served.
func TestTruncatedEntryQuarantined(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("k", []byte("result")); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "results", entryName("k"))
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(orig); cut += 7 {
		if err := os.WriteFile(path, orig[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := s.Get("k")
		if got != nil {
			t.Fatalf("cut %d: truncated entry served: %q", cut, got)
		}
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("cut %d: err = %v, want ErrCorrupt", cut, err)
		}
		if err := os.WriteFile(path, orig, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCrashBeforeRenameLeavesNoEntry arms the crash-after-write-before-
// rename failpoint: Put fails, the destination is untouched, and the next
// Open sweeps the abandoned temp file.
func TestCrashBeforeRenameLeavesNoEntry(t *testing.T) {
	dir := t.TempDir()
	fp := faultinj.NewSet()
	s, err := Open(dir, fp)
	if err != nil {
		t.Fatal(err)
	}
	fp.FailOnce(PointRename, faultinj.Crash(PointRename))
	if err := s.Put("k", []byte("v")); err == nil {
		t.Fatal("Put succeeded through a crash point")
	}
	if got, err := s.Get("k"); got != nil || err != nil {
		t.Fatalf("after crashed Put: Get = (%q, %v), want miss", got, err)
	}
	tmps, _ := os.ReadDir(filepath.Join(dir, "tmp"))
	if len(tmps) == 0 {
		t.Fatal("crash left no temp debris (crash point not crossed?)")
	}
	// Recovery: the crashed process's lock is released (a real crash
	// releases it with the process), then a fresh Open sweeps the debris
	// and the Put succeeds.
	s.Close()
	s2, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	tmps, _ = os.ReadDir(filepath.Join(dir, "tmp"))
	if len(tmps) != 0 {
		t.Fatalf("Open left %d temp files", len(tmps))
	}
	if err := s2.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if got, err := s2.Get("k"); err != nil || !bytes.Equal(got, []byte("v")) {
		t.Fatalf("post-recovery Get = (%q, %v)", got, err)
	}
}

func TestWriteAndFsyncFailpoints(t *testing.T) {
	for _, point := range []string{PointWrite, PointFsync} {
		fp := faultinj.NewSet()
		s := openStore(t, fp)
		fp.FailOnce(point, faultinj.Crash(point))
		if err := s.Put("k", []byte("v")); err == nil {
			t.Fatalf("%s: Put succeeded", point)
		}
		if got, _ := s.Get("k"); got != nil {
			t.Fatalf("%s: partial entry served", point)
		}
	}
}

func TestBlobRoundTripAndCorruption(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	raw := []byte("firmware-image-bytes")
	sum := sha256.Sum256(raw)
	sha := hex.EncodeToString(sum[:])
	if err := s.PutBlob(sha, raw); err != nil {
		t.Fatal(err)
	}
	// Idempotent re-put.
	if err := s.PutBlob(sha, raw); err != nil {
		t.Fatalf("re-put: %v", err)
	}
	got, err := s.GetBlob(sha)
	if err != nil || !bytes.Equal(got, raw) {
		t.Fatalf("GetBlob = (%q, %v)", got, err)
	}
	if got, err := s.GetBlob("0000000000000000000000000000000000000000000000000000000000000000"); got != nil || err != nil {
		t.Fatalf("absent blob = (%q, %v), want miss", got, err)
	}
	// Corrupt the blob: must be quarantined, never served.
	path := filepath.Join(dir, "blobs", sha+".blob")
	if err := os.WriteFile(path, append(raw, 'x'), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err = s.GetBlob(sha)
	if got != nil {
		t.Fatalf("corrupt blob served: %q", got)
	}
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
	// A digest the caller got wrong is caught on read, like corruption.
	wrong := "1111111111111111111111111111111111111111111111111111111111111111"
	if err := s.PutBlob(wrong, raw); err != nil {
		t.Fatal(err)
	}
	if got, err := s.GetBlob(wrong); got != nil || !errors.Is(err, ErrCorrupt) {
		t.Fatalf("blob under a wrong digest = (%q, %v), want ErrCorrupt", got, err)
	}
}

func TestEncodeDecodeEntryProperties(t *testing.T) {
	for _, tc := range []struct {
		key     string
		payload string
	}{
		{"", ""},
		{"k", "v"},
		{"key with | separators | and {json}", `{"a":1}`},
	} {
		b := encodeEntry(tc.key, []byte(tc.payload))
		k, p, err := decodeEntry(b)
		if err != nil || k != tc.key || string(p) != tc.payload {
			t.Fatalf("round trip (%q,%q) = (%q,%q,%v)", tc.key, tc.payload, k, p, err)
		}
		// Trailing garbage must not be accepted silently.
		if _, _, err := decodeEntry(append(b, 0)); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("trailing garbage accepted for key %q", tc.key)
		}
	}
}
