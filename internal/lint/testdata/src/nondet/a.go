// Fixture for the nondet analyzer, type-checked under the import path of a
// pure analysis package so the determinism contract applies.
package fixture

import (
	"math/rand"
	"os"
	"runtime"
	"runtime/metrics"
	"time"
)

// Stamp reads the wall clock inside the pure core.
func Stamp() time.Time {
	return time.Now() // want `time\.Now in pure analysis package`
}

// Jitter draws randomness inside the pure core.
func Jitter() int {
	return rand.Int() // want `rand\.Int in pure analysis package`
}

// Env makes analysis output depend on the process environment.
func Env() string {
	return os.Getenv("FITS_DEBUG") // want `os\.Getenv in pure analysis package`
}

// HeapObjects reads the allocation counter inside the pure core.
func HeapObjects() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s) // want `metrics\.Read in pure analysis package`
	return s[0].Value.Uint64()
}

// HeapBytes reads memory statistics inside the pure core.
func HeapBytes() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms) // want `runtime\.ReadMemStats in pure analysis package`
	return ms.TotalAlloc
}

// Elapsed is deterministic arithmetic on injected values: clean.
func Elapsed(start, end time.Time) time.Duration {
	return end.Sub(start)
}

// Exiting through os is not an environment read: clean.
func Die() {
	os.Exit(2)
}

// DebugKnob documents why the read is harmless and suppresses the finding.
func DebugKnob() string {
	//fitslint:ignore nondet debug-only knob; value never reaches analysis output
	return os.Getenv("FITS_TRACE")
}
