package synth

import "slices"

// Verdict is the ground truth's judgement of one reported alert.
type Verdict uint8

// Verdicts: no planted flow sinks at the alert's coordinate; it lands on
// a planted flow that is no bug (sanitized, benign, filtered key,
// infeasible), a false positive; it lands on a planted true bug.
const (
	Unplanted Verdict = iota
	PlantedSafe
	PlantedVulnerable
)

// Flow locates a planted flow by its binary and the entry of the function
// holding its sink call. Multi-binary firmware can plant flows at the same
// sink entry in two binaries; they are two flows.
type Flow struct {
	Binary    string
	SinkEntry uint32
}

// Handler resolves the planted handler an alert lands on: same binary,
// same sink-function entry (the flow's innermost wrapper for deep bugs)
// and same sink name.
func (m *Manifest) Handler(binary string, entry uint32, sink string) (HandlerTruth, bool) {
	for _, h := range m.Handlers {
		if h.Binary == binary && h.SinkEntry == entry && h.Sink == sink {
			return h, true
		}
	}
	return HandlerTruth{}, false
}

// Match judges an alert on sink inside the function at entry of binary by
// Handler's rule.
func (m *Manifest) Match(binary string, entry uint32, sink string) (Verdict, Flow) {
	h, ok := m.Handler(binary, entry, sink)
	return verdict(ok, ok && h.Category.Vulnerable()), Flow{Binary: binary, SinkEntry: entry}
}

// Match judges a corpus alert against the planted flows by the rule of
// Manifest.Match.
func (m *XManifest) Match(binary string, entry uint32, sink string) (Verdict, Flow) {
	i := slices.IndexFunc(m.Flows, func(f XFlowTruth) bool {
		return f.SinkBinary == binary && f.SinkEntry == entry && f.Sink == sink
	})
	return verdict(i >= 0, i >= 0 && m.Flows[i].Vulnerable), Flow{Binary: binary, SinkEntry: entry}
}

func verdict(planted, vulnerable bool) Verdict {
	switch {
	case vulnerable:
		return PlantedVulnerable
	case planted:
		return PlantedSafe
	}
	return Unplanted
}

// Tally scores one sample's reported alerts: every alert counts, those not
// on a planted bug are false positives, and the bugs hit form a set, so
// repeat alerts on one flow count it once.
type Tally struct {
	Alerts int
	FP     int
	Found  map[Flow]bool
}

// Add counts one alert by its Match result.
func (t *Tally) Add(v Verdict, f Flow) {
	t.Alerts++
	if v != PlantedVulnerable {
		t.FP++
		return
	}
	if t.Found == nil {
		t.Found = map[Flow]bool{}
	}
	t.Found[f] = true
}

// IsITS reports whether entry is a planted ITS of binary.
func (m *Manifest) IsITS(binary string, entry uint32) bool {
	return slices.ContainsFunc(m.ITS, func(s ITSTruth) bool { return s.Binary == binary && s.Entry == entry })
}

// DeepestBug returns the vulnerable handler farthest from the classical
// source, the first of equals in manifest order; false when none is
// planted.
func (m *Manifest) DeepestBug() (deepest HandlerTruth, ok bool) {
	for _, h := range m.Handlers {
		if h.Category.Vulnerable() && (!ok || h.CTSDepth > deepest.CTSDepth) {
			deepest, ok = h, true
		}
	}
	return deepest, ok
}
