// Package verify implements the reproduction's analog of the paper's
// Appendix A: confirming that an inferred candidate really behaves as an
// intermediate taint source, and identifying its taint origin.
//
// The paper verifies candidates by firmware rehosting, real-device debugging
// or cross-version symbol analysis — all manual. Here the check is
// automated with the instruction-level emulator: the candidate is executed
// with a synthetic request store planted in memory (a keyed field holding a
// marker value), library imports emulated natively, and the candidate is
// confirmed when it returns a pointer to the marker — i.e. it fetched part
// of the stored user input and passed it out through the return register,
// which then becomes the taint origin.
//
// The check establishes *capability*: a confirmed function extracts keyed
// data from a caller-supplied store. Distinguishing request fetchers from
// behaviorally identical configuration fetchers additionally requires
// observing what store the firmware passes at runtime, which is what the
// corpus manifests record.
package verify

import (
	"errors"
	"fmt"
	"strings"

	"fits/internal/binimg"
	"fits/internal/cfg"
	"fits/internal/emu"
	"fits/internal/isa"
)

// Marker values planted in the synthetic store.
const (
	probeKey    = "username"
	probeMarker = "MARKER_VALUE_1337"
)

// Outcome reports one candidate's dynamic verification.
type Outcome struct {
	Entry    uint32
	Verified bool
	// TaintOrigin names where the extracted data leaves the function;
	// the return register for confirmed candidates.
	TaintOrigin string
	// Returned is the string found at the returned pointer (diagnostic).
	Returned string
	Err      error
}

// Scratch memory layout inside the emulated stack region.
const (
	scratchBase = emu.StackTop - 1<<20 + 0x1000
	keyAddr     = scratchBase
	storeAddr   = scratchBase + 0x100
	heapBase    = scratchBase + 0x1000
	heapLimit   = scratchBase + 0x8000
)

var errNoReturn = errors.New("verify: candidate returned no data pointer")

// Candidate executes the function at entry under emulation and checks the
// extract-and-return behaviour.
func Candidate(bin *binimg.Binary, model *cfg.Model, entry uint32) Outcome {
	out := Outcome{Entry: entry}
	fn, ok := model.FuncAt(entry)
	if !ok || fn.ImportStub {
		out.Err = fmt.Errorf("verify: 0x%x is not a custom function", entry)
		return out
	}

	m := emu.New(bin)
	m.MaxSteps = 200_000
	m.InstallLibc(heapBase, heapLimit, nil)
	m.Sys = func(m *emu.Machine, num int32) error {
		// Raw system primitives inside a candidate (I/O, exec) mean it is
		// not a pure fetcher; stop the run.
		m.Halt()
		return nil
	}

	// Plant the probe: key string and a store holding decoy fields plus
	// the keyed marker.
	if err := m.StoreBytes(keyAddr, append([]byte(probeKey), 0)); err != nil {
		out.Err = err
		return out
	}
	// The keyed field leads the store: fetchers treat an interior NUL at
	// the scan cursor as end-of-input, exactly as the firmware's own
	// field separators delimit the first record.
	store := probeKey + "\x00" + probeMarker + "\x00" + "lang\x00en\x00"
	if err := m.StoreBytes(storeAddr, append([]byte(store), 0)); err != nil {
		out.Err = err
		return out
	}

	// A fourth argument offers an output buffer so that pointer-output
	// fetchers (which write the field instead of returning it) verify too.
	outBuf := uint32(scratchBase + 0x800)
	ret, err := m.CallFunction(entry, keyAddr, storeAddr, uint32(len(store)), outBuf)
	if err != nil {
		out.Err = err
		return out
	}
	if ret != 0 {
		s, err := m.ReadCString(ret, 64)
		if err == nil && strings.Contains(s, probeMarker) {
			out.Returned = s
			out.Verified = true
			out.TaintOrigin = isa.R0.String()
			return out
		}
		out.Returned = s
	}
	if s, err := m.ReadCString(outBuf, 64); err == nil && strings.Contains(s, probeMarker) {
		out.Returned = s
		out.Verified = true
		out.TaintOrigin = "param3 pointee"
		return out
	}
	if out.Returned == "" {
		out.Err = errNoReturn
	} else {
		out.Err = fmt.Errorf("verify: returned %q, not the planted field", out.Returned)
	}
	return out
}
