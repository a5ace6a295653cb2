// Package synth generates the synthetic firmware corpus. Every sample is a
// complete firmware image — a packed, optionally vendor-encrypted filesystem
// holding a stripped network daemon, CGI binaries and a libc — authored in
// the minic language and compiled for one of three architectures.
//
// The generator reproduces the structural regularities the paper observed in
// Internet-connected IoT firmware: interface functions receive structured
// requests, a parser stores fields into memory, and keyed fetch functions
// (the intermediate taint sources) extract fields for handler logic. It also
// plants the confounders that limit top-1 precision (error printers,
// duplicating string utilities) and taint-style bugs at graded call depths,
// and emits a ground-truth manifest so that inference precision and taint
// analysis results can be scored mechanically — the machine-checkable
// substitute for the paper's manual verification (Appendix A).
package synth

import (
	"fits/internal/firmware"
	"fits/internal/isa"
	"fits/internal/know"
)

// HandlerCategory classifies each generated sink-reaching handler for
// alert scoring.
type HandlerCategory uint8

// Handler categories.
const (
	// VulnShallow is a true bug: user data reaches the sink unchecked,
	// one or two calls below the ITS.
	VulnShallow HandlerCategory = iota
	// VulnDeep is a true bug buried under additional wrapper layers;
	// budgeted engines starting at classical sources miss it.
	VulnDeep
	// SafeSanitized bounds-checks the fetched data before the sink; an
	// alert here is a false positive.
	SafeSanitized
	// BenignSystemData feeds configuration data (MAC, IP, subnet) to the
	// sink; an alert here is a false positive of coarse taint tracking.
	BenignSystemData
	// SystemKeyFetch calls the ITS with a system-data key; the paper's
	// string filter removes these alerts.
	SystemKeyFetch
	// VulnRaw is a true bug on the raw request buffer: the sink consumes
	// the receive buffer directly, the only flow shape the classical
	// region-level analysis can see.
	VulnRaw
	// SafeRaw length-checks the raw buffer before the sink; engines that
	// cannot see the check (region-level STA, path-insensitive symbolic
	// taint) report it anyway — a classical-source false positive.
	SafeRaw
	// SafeInfeasible guards the sink behind contradictory branch
	// conditions (x < 4 nested inside x >= 100): the sink is dead code and
	// any alert is a false positive only path-feasibility checking removes.
	SafeInfeasible
	// VulnAliased is a true bug where the fetched field travels through a
	// store/load pair on a pointer table: only the alias pass connects the
	// tainted store to the sink's load.
	VulnAliased
)

func (c HandlerCategory) String() string {
	switch c {
	case VulnShallow:
		return "vuln-shallow"
	case VulnDeep:
		return "vuln-deep"
	case SafeSanitized:
		return "safe-sanitized"
	case BenignSystemData:
		return "benign-system-data"
	case SystemKeyFetch:
		return "system-key-fetch"
	case VulnRaw:
		return "vuln-raw"
	case SafeRaw:
		return "safe-raw"
	case SafeInfeasible:
		return "safe-infeasible"
	case VulnAliased:
		return "vuln-aliased"
	}
	return "unknown"
}

// Vulnerable reports whether an alert on this handler is a true positive.
func (c HandlerCategory) Vulnerable() bool {
	return c == VulnShallow || c == VulnDeep || c == VulnRaw || c == VulnAliased
}

// HandlerTruth is the ground truth for one generated handler function.
type HandlerTruth struct {
	Binary   string
	FuncName string
	Entry    uint32 // function entry after linking
	Category HandlerCategory
	Sink     string // sink library function name
	Kind     know.SinkKind
	// CTSDepth is the call-graph distance from the classical source to
	// the sink; ITSDepth from the intermediate source.
	CTSDepth int
	ITSDepth int
	// Key is the request field the handler fetches ("" for benign flows).
	Key string
	// SinkFuncName/SinkEntry locate the function containing the sink call
	// (an inner wrapper for deep flows, the handler itself otherwise).
	SinkFuncName string
	SinkEntry    uint32
	// Filterable marks system-key fetches whose key the string filter
	// recognizes.
	Filterable bool
}

// ITSTruth records one planted intermediate taint source.
type ITSTruth struct {
	Binary   string
	FuncName string
	Entry    uint32
	// TaintsReturn: the extracted field leaves via the return register.
	TaintsReturn bool
}

// Manifest is the ground truth of one firmware sample.
type Manifest struct {
	Vendor  string
	Product string
	Version string
	Series  string
	Arch    isa.Arch
	Scheme  firmware.Scheme
	// Latest marks the new-version half of the dataset.
	Latest bool

	// NetBinaries are the filesystem paths of binaries exporting network
	// services (the intended pre-processing selection).
	NetBinaries []string

	// FailureMode is non-empty for samples engineered to defeat inference,
	// mirroring the paper's six failures: "preprocess-miss" (the network
	// binary hides its interface imports behind a shim library) or
	// "offset-indexed" (fields are fetched by fixed offsets; no ITS
	// exists).
	FailureMode string

	ITS      []ITSTruth
	Handlers []HandlerTruth
}

// TrueBugs counts handlers whose alerts are true positives.
func (m *Manifest) TrueBugs() int {
	n := 0
	for _, h := range m.Handlers {
		if h.Category.Vulnerable() {
			n++
		}
	}
	return n
}

// ITSIn reports the planted ITS entries for one binary name.
func (m *Manifest) ITSIn(binary string) []ITSTruth {
	var out []ITSTruth
	for _, s := range m.ITS {
		if s.Binary == binary {
			out = append(out, s)
		}
	}
	return out
}

// HandlerBySink resolves the handler whose sink call lives in the function
// at entry (the flow's innermost wrapper for deep bugs).
func (m *Manifest) HandlerBySink(binary string, entry uint32) (HandlerTruth, bool) {
	for _, h := range m.Handlers {
		if h.Binary == binary && h.SinkEntry == entry {
			return h, true
		}
	}
	return HandlerTruth{}, false
}

// Sample is one generated firmware with its packaging and ground truth.
type Sample struct {
	Image    *firmware.Image
	Packed   []byte
	Manifest Manifest
}
