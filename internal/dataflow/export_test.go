package dataflow

import "testing"

// SetMaxPasses lowers the fixpoint pass budget every Forward caller shares,
// restoring it when the test ends. It lets tests of dependent packages
// (package dataflow_test) drive their truncation paths.
func SetMaxPasses(t testing.TB, n int) {
	old := maxPasses
	maxPasses = n
	t.Cleanup(func() { maxPasses = old })
}
