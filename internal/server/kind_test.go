package server

import (
	"encoding/hex"
	"strconv"
	"strings"
	"testing"

	"fits/internal/diskstore"
	"fits/internal/modelcache"
	"fits/internal/optbuild"
)

// TestSubmissionIdentityGolden pins the content address (JobStatus.SHA256,
// the ?sha= index) and the on-disk result key of each job kind to the
// values fitsd has always computed, so data dirs written by earlier builds
// keep replaying and disk-hitting. The journal-replay path must derive the
// same identity from the accepted record's blob hashes alone.
func TestSubmissionIdentityGolden(t *testing.T) {
	def := optbuild.Spec{}
	scan := optbuild.Spec{Scan: true}
	for _, s := range []*optbuild.Spec{&def, &scan} {
		if err := s.Normalize(); err != nil {
			t.Fatal(err)
		}
	}
	const (
		defJSON  = `{"engine":"static","top_k":3,"string_filter":true,"metric":"cosine"}`
		scanJSON = `{"engine":"static","scan":true,"top_k":3,"string_filter":true,"metric":"cosine"}`
	)
	for _, tc := range []struct {
		kind    string
		inputs  []string
		spec    optbuild.Spec
		wantSHA string
		// wantKey has "{v}" where modelcache.ConfigVersion goes: bumping
		// the version is the designed way to invalidate every entry.
		wantKey string
	}{
		{
			kind: "", inputs: []string{"plain-firmware"}, spec: def,
			wantSHA: "48ccfb6510355bd540668e41156d996c8fe7bb8a355bbb8849fe7f266d695c62",
			wantKey: "job|v{v}|" + defJSON + "|48ccfb6510355bd540668e41156d996c8fe7bb8a355bbb8849fe7f266d695c62",
		},
		{
			kind: KindDiff, inputs: []string{"old-firmware", "new-firmware"}, spec: scan,
			wantSHA: "57c5bcb86f54f334e4a6e575f08b42071e81fb3db77b76d9ed69a78688cf2f54",
			wantKey: "diff|v{v}|" + scanJSON +
				"|503f6f98ffc52031b4329657b454f20a1d45b1a931f3bfcbeb72573a65f0df33" +
				"|68b2bc6cb12cdc45e691eac3268e6457f51469b1f78d7723f6225b9f3c39215f",
		},
		{
			kind: KindCorpus, inputs: []string{"packed-corpus"}, spec: def,
			wantSHA: "4483fab1b291857b1d00ff710b6b206f680d0c53ed2eecbf1985bedbbf3354a3",
			wantKey: "corpus|v{v}|" + defJSON + "|4483fab1b291857b1d00ff710b6b206f680d0c53ed2eecbf1985bedbbf3354a3",
		},
	} {
		in := make([][]byte, len(tc.inputs))
		sums := make([]modelcache.Hash, len(tc.inputs))
		shas := make([]string, len(tc.inputs))
		for i, s := range tc.inputs {
			in[i] = []byte(s)
			sums[i] = modelcache.HashBytes(in[i])
			shas[i] = hex.EncodeToString(sums[i][:])
		}
		if got := SubmissionSHA(in...); got != tc.wantSHA {
			t.Errorf("%q: SubmissionSHA = %s, want %s", tc.kind, got, tc.wantSHA)
		}
		wantKey := strings.ReplaceAll(tc.wantKey, "{v}", strconv.Itoa(modelcache.ConfigVersion))
		if got := jobKey(tc.kind, tc.spec, sums...); got != wantKey {
			t.Errorf("%q: jobKey = %s, want %s", tc.kind, got, wantKey)
		}
		rec, err := acceptedRecord(&Job{kind: tc.kind, spec: tc.spec}, shas)
		if err != nil {
			t.Fatal(err)
		}
		if got := recordIdentity(rec); got != tc.wantSHA {
			t.Errorf("%q: replayed identity = %s, want %s", tc.kind, got, tc.wantSHA)
		}
	}
	// A record whose hashes do not parse as SHA-256 digests keeps its first
	// hash.
	long := strings.Repeat("ab", 40)
	for _, rec := range []diskstore.Record{{SHA: "zz", SHA2: "yy"}, {SHA: long}, {SHA: long, SHA2: long}} {
		if got := recordIdentity(rec); got != rec.SHA {
			t.Errorf("unparsable record %+v: identity = %q, want %q", rec, got, rec.SHA)
		}
	}
}
