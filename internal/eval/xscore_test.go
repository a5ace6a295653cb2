package eval

import (
	"context"
	"testing"

	"fits/internal/synth"
)

// TestRunXScore is the acceptance table of the cross-binary subsystem:
// keyword-seeded cross-binary mode reaches every planted vulnerable flow
// (local and cross), while CTS and CTS+ITS — perfect or not on the border
// binary — detect zero cross-binary flows.
func TestRunXScore(t *testing.T) {
	x, err := synth.GenerateXCorpus(1)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := runXScore(context.Background(), testCache, x)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", formatXScore(rows))
	if len(rows) != 3 {
		t.Fatalf("got %d rows, want 3", len(rows))
	}
	byMode := map[string]XScoreRow{}
	for _, r := range rows {
		byMode[r.Mode] = r
	}

	var crossTotal int
	for _, f := range x.Manifest.Flows {
		if f.CrossBinary && f.Vulnerable {
			crossTotal++
		}
	}
	if crossTotal == 0 {
		t.Fatal("manifest plants no vulnerable cross flows")
	}

	for _, mode := range []string{"cts", "its"} {
		r := byMode[mode]
		if r.CrossTP != 0 {
			t.Errorf("%s: detected %d cross flows, want 0 (single-binary seeding cannot see them)", mode, r.CrossTP)
		}
		if r.CrossTotal != crossTotal {
			t.Errorf("%s: cross total = %d, want %d", mode, r.CrossTotal, crossTotal)
		}
		if r.Recall >= 1 {
			t.Errorf("%s: recall = %.2f, want < 1 (cross flows missed)", mode, r.Recall)
		}
	}

	cross := byMode["cross"]
	if cross.CrossTP != crossTotal {
		t.Errorf("cross: detected %d/%d cross flows, want all", cross.CrossTP, crossTotal)
	}
	if cross.FN != 0 || cross.Recall != 1 {
		t.Errorf("cross: FN=%d recall=%.2f, want 0/1 (every vulnerable flow found)", cross.FN, cross.Recall)
	}
	if cross.FP != 0 || cross.Precision != 1 {
		t.Errorf("cross: FP=%d precision=%.2f, want 0/1 (sanitized and constant flows stay silent)", cross.FP, cross.Precision)
	}

	// Monotone: each richer seeding finds at least as much as the last.
	if !(byMode["cts"].TP <= byMode["its"].TP && byMode["its"].TP < cross.TP) {
		t.Errorf("TP not monotone: cts=%d its=%d cross=%d", byMode["cts"].TP, byMode["its"].TP, cross.TP)
	}
}
