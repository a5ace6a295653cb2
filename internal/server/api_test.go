package server

import (
	"testing"

	"fits"
	"fits/internal/corpustaint"
)

// TestCountDegraded checks the helper every runner feeds its result's alerts
// through: fitsd_analysis_truncated_total counts exactly the degraded ones,
// whether they come bare (analysis and diff results) or embedded in a
// corpus alert. No server test can trip a real analysis budget, so the
// alerts are built by hand.
func TestCountDegraded(t *testing.T) {
	var n int
	env := RunEnv{Truncated: func() { n++ }}
	degraded := fits.Alert{Sink: "system", Degraded: true}
	env.countDegraded(fits.Alert{Sink: "strcpy"}, degraded, degraded)
	corpus := corpustaint.Alert{Finding: degraded, Via: "nvram:wl_key"}
	env.countDegraded(corpus.Finding)
	if n != 3 {
		t.Errorf("Truncated called %d times, want 3", n)
	}
	RunEnv{}.countDegraded(degraded) // a nil hook is allowed
}
