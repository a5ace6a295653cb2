package diskstore

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"fits/internal/faultinj"
)

func openJournal(t *testing.T, path string, fp *faultinj.Set) (*Journal, []Record) {
	t.Helper()
	j, recs, err := OpenJournal(path, fp)
	if err != nil {
		t.Fatal(err)
	}
	return j, recs
}

func TestJournalAppendReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.wal")
	j, recs := openJournal(t, path, nil)
	if len(recs) != 0 {
		t.Fatalf("fresh journal replayed %d records", len(recs))
	}
	want := []Record{
		{Op: OpAccepted, ID: "j000001", Seq: 1, SHA: "aa", Size: 3, Spec: json.RawMessage(`{"scan":true}`), Key: "k1"},
		{Op: OpStarted, ID: "j000001"},
		{Op: OpFinished, ID: "j000001", State: "done"},
		{Op: OpAccepted, ID: "j000002", Seq: 2, Kind: "diff", SHA: "bb", SHA2: "cc", Key: "k2"},
	}
	for _, rec := range want {
		if err := j.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()

	_, got := openJournal(t, path, nil)
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Op != w.Op || g.ID != w.ID || g.Seq != w.Seq || g.Kind != w.Kind ||
			g.SHA != w.SHA || g.SHA2 != w.SHA2 || g.Key != w.Key || g.State != w.State {
			t.Fatalf("record %d: %+v, want %+v", i, g, w)
		}
	}
}

func TestJournalTornTailTruncated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.wal")
	j, _ := openJournal(t, path, nil)
	if err := j.Append(Record{Op: OpAccepted, ID: "j1"}); err != nil {
		t.Fatal(err)
	}
	j.Close()
	durable, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-append: half a frame of the next record.
	frame, err := EncodeRecord(Record{Op: OpAccepted, ID: "j2"})
	if err != nil {
		t.Fatal(err)
	}
	torn := append(append([]byte(nil), durable...), frame[:len(frame)/2]...)
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}

	j2, recs := openJournal(t, path, nil)
	if len(recs) != 1 || recs[0].ID != "j1" {
		t.Fatalf("replay = %+v, want the one durable record", recs)
	}
	// The file was truncated back to the valid prefix, and appending
	// continues from there.
	if err := j2.Append(Record{Op: OpStarted, ID: "j1"}); err != nil {
		t.Fatal(err)
	}
	j2.Close()
	_, recs = openJournal(t, path, nil)
	if len(recs) != 2 || recs[1].Op != OpStarted {
		t.Fatalf("post-truncate replay = %+v", recs)
	}
}

// TestJournalBatchAppend: the records of one Append cost one write and one
// fsync and replay in order; a crash that tears the batch keeps its whole
// frames, as a crash between separate appends would.
func TestJournalBatchAppend(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.wal")
	fp := faultinj.NewSet()
	j, _ := openJournal(t, path, fp)
	batch := []Record{{Op: OpAccepted, ID: "j1", Seq: 1, SHA: "aa"}, {Op: OpFinished, ID: "j1", State: "done"}}
	if err := j.Append(batch...); err != nil {
		t.Fatal(err)
	}
	if n := fp.Hits(PointJournalFsync); n != 1 {
		t.Fatalf("a two-record append crossed the fsync point %d times, want 1", n)
	}
	j.Close()
	_, recs := openJournal(t, path, nil)
	if len(recs) != 2 || recs[0].Op != OpAccepted || recs[1].Op != OpFinished {
		t.Fatalf("replay = %+v, want the batch", recs)
	}

	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	first, err := EncodeRecord(batch[0])
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(full); cut++ {
		if err := os.WriteFile(path, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		torn, recs := openJournal(t, path, nil)
		torn.Close()
		want := 0
		if cut >= len(first) {
			want = 1
		}
		if len(recs) != want || (want == 1 && recs[0].Op != OpAccepted) {
			t.Fatalf("batch torn at byte %d replayed %+v, want the first %d record(s)", cut, recs, want)
		}
	}
}

func TestJournalRewriteCompacts(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.wal")
	j, _ := openJournal(t, path, nil)
	for i := 0; i < 10; i++ {
		if err := j.Append(Record{Op: OpAccepted, ID: fmt.Sprintf("j%d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	keep := []Record{{Op: OpAccepted, ID: "j9", Seq: 9}}
	if err := j.Rewrite(keep); err != nil {
		t.Fatal(err)
	}
	// Appends continue against the compacted file.
	if err := j.Append(Record{Op: OpStarted, ID: "j9"}); err != nil {
		t.Fatal(err)
	}
	j.Close()
	_, recs := openJournal(t, path, nil)
	if len(recs) != 2 || recs[0].ID != "j9" || recs[1].Op != OpStarted {
		t.Fatalf("compacted replay = %+v", recs)
	}
}

func TestJournalAppendFailpointsKeepPrefixValid(t *testing.T) {
	for _, point := range []string{PointJournalAppend, PointJournalFsync} {
		path := filepath.Join(t.TempDir(), "journal.wal")
		fp := faultinj.NewSet()
		j, _ := openJournal(t, path, fp)
		if err := j.Append(Record{Op: OpAccepted, ID: "j1"}); err != nil {
			t.Fatal(err)
		}
		fp.FailOnce(point, faultinj.Crash(point))
		if err := j.Append(Record{Op: OpAccepted, ID: "j2"}); err == nil {
			t.Fatalf("%s: append succeeded through crash point", point)
		}
		j.Close()
		_, recs := openJournal(t, path, nil)
		// j1 must survive; j2 may or may not be present depending on where
		// the crash landed, but the log must replay without error and
		// never contain a third record.
		if len(recs) == 0 || recs[0].ID != "j1" || len(recs) > 2 {
			t.Fatalf("%s: replay = %+v", point, recs)
		}
	}
}

// TestJournalRandomKillPoints is the journal half of the crash-recovery
// property: across many randomized crash offsets, every record whose
// append was acknowledged (fully framed and fsynced before the kill
// point) survives replay, and the torn remainder never corrupts the log.
func TestJournalRandomKillPoints(t *testing.T) {
	const rounds = 40
	for round := 0; round < rounds; round++ {
		rng := rand.New(rand.NewSource(int64(round) + 1))
		path := filepath.Join(t.TempDir(), "journal.wal")
		j, _ := openJournal(t, path, nil)

		// Build a random job history; record the durable length after
		// each acknowledged append.
		nRecs := 1 + rng.Intn(12)
		var ackLens []int64
		var acked []Record
		for i := 0; i < nRecs; i++ {
			rec := Record{
				Op:  []string{OpAccepted, OpStarted, OpFinished}[rng.Intn(3)],
				ID:  fmt.Sprintf("j%06d", rng.Intn(5)+1),
				SHA: fmt.Sprintf("%064x", rng.Int63()),
			}
			if err := j.Append(rec); err != nil {
				t.Fatal(err)
			}
			n, err := j.Size()
			if err != nil {
				t.Fatal(err)
			}
			ackLens = append(ackLens, n)
			acked = append(acked, rec)
		}
		j.Close()
		full, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}

		// Kill point: pick how many records were acknowledged before the
		// crash, then a random byte offset into the unacknowledged
		// remainder (the torn tail), optionally garbling the torn bytes.
		ackedCount := rng.Intn(len(ackLens) + 1)
		var durable int64
		if ackedCount > 0 {
			durable = ackLens[ackedCount-1]
		}
		cut := durable
		if int64(len(full)) > durable {
			cut = durable + rng.Int63n(int64(len(full))-durable+1)
		}
		crash := append([]byte(nil), full[:cut]...)
		if len(crash) > int(durable) && rng.Intn(2) == 0 {
			crash[int(durable)+rng.Intn(len(crash)-int(durable))] ^= 0xff
		}
		if err := os.WriteFile(path, crash, 0o644); err != nil {
			t.Fatal(err)
		}

		j2, recs, err := OpenJournal(path, nil)
		if err != nil {
			t.Fatalf("round %d: replay errored: %v", round, err)
		}
		j2.Close()
		if len(recs) < ackedCount {
			t.Fatalf("round %d: lost acknowledged records: replayed %d, acked %d",
				round, len(recs), ackedCount)
		}
		for i := 0; i < ackedCount; i++ {
			if recs[i].Op != acked[i].Op || recs[i].ID != acked[i].ID || recs[i].SHA != acked[i].SHA {
				t.Fatalf("round %d: record %d mutated: %+v, want %+v", round, i, recs[i], acked[i])
			}
		}
		// Anything past the acked prefix must be a record we actually
		// wrote (a complete-but-unacked frame), never invented data.
		for i := ackedCount; i < len(recs); i++ {
			if i >= len(acked) || recs[i].ID != acked[i].ID {
				t.Fatalf("round %d: replay invented record %d: %+v", round, i, recs[i])
			}
		}
	}
}
