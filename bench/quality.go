package bench

import (
	"fits"
	"fits/internal/corpustaint"
	"fits/internal/synth"
)

// quality scores outputs against the synth manifests, never against the
// program's own output. recall_pct is found/planted: vulnerable handlers
// alerted at their sink function (images), planted vulnerable corpus
// flows alerted at their coordinate (corpora), expected churn alerts
// reported (diffs). precision_pct is good/alerts over the same alerts.
type quality struct {
	found, planted     int
	good, alerts       int
	itsHit, itsPlanted int // planted ITS in its binary's top-3
	detail             map[string]float64
}

func (q *quality) add(o quality) {
	q.found += o.found
	q.planted += o.planted
	q.good += o.good
	q.alerts += o.alerts
	q.itsHit += o.itsHit
	q.itsPlanted += o.itsPlanted
}

// targetView is the part of one analyzed target that quality reads.
type targetView struct {
	binary string
	top3   []uint32 // best-ranked candidate entries
	alerts []uint32 // entry of the function containing each alert's sink
}

// scoreImage scores one image's targets the way eval.RunBugEngine matches
// alerts: an alert is good when its function is a vulnerable handler's
// SinkEntry in the same binary.
func scoreImage(m *synth.Manifest, targets []targetView) quality {
	var q quality
	type flow struct {
		binary string
		entry  uint32
	}
	found := map[flow]bool{}
	for _, t := range targets {
		for _, its := range m.ITSIn(t.binary) {
			q.itsPlanted++
			for _, e := range t.top3 {
				if e == its.Entry {
					q.itsHit++
					break
				}
			}
		}
		for _, fn := range t.alerts {
			q.alerts++
			if h, ok := m.HandlerBySink(t.binary, fn); ok && h.Category.Vulnerable() {
				q.good++
				found[flow{t.binary, h.SinkEntry}] = true
			}
		}
	}
	for _, h := range m.Handlers {
		if h.Category.Vulnerable() {
			q.planted++
			if found[flow{h.Binary, h.SinkEntry}] {
				q.found++
			}
		}
	}
	return q
}

// resultViews adapts an analysis result and its per-target alerts.
func resultViews(res *fits.Result, alerts [][]fits.Alert) []targetView {
	out := make([]targetView, len(res.Targets))
	for i, t := range res.Targets {
		v := targetView{binary: t.Binary}
		for _, c := range t.TopCandidates(3) {
			v.top3 = append(v.top3, c.Entry)
		}
		for _, a := range alerts[i] {
			v.alerts = append(v.alerts, a.Func)
		}
		out[i] = v
	}
	return out
}

// scoreCorpus scores a corpus report as eval.RunXScore does: an alert is
// good when it lands on a planted vulnerable flow's (binary, function,
// sink). cross counts the cross-binary flows found and planted.
func scoreCorpus(m *synth.XManifest, alerts []corpustaint.Alert) (q quality, crossFound, crossPlanted int) {
	type coord struct {
		binary string
		entry  uint32
		sink   string
	}
	vuln := map[coord]bool{}
	for _, f := range m.Flows {
		if f.Vulnerable {
			vuln[coord{f.SinkBinary, f.SinkEntry, f.Sink}] = true
		}
	}
	hit := map[coord]bool{}
	for _, a := range alerts {
		q.alerts++
		c := coord{a.Binary, a.Func, a.Sink}
		if vuln[c] {
			q.good++
			hit[c] = true
		}
	}
	for _, f := range m.Flows {
		if !f.Vulnerable {
			continue
		}
		q.planted++
		c := coord{f.SinkBinary, f.SinkEntry, f.Sink}
		if hit[c] {
			q.found++
		}
		if f.CrossBinary {
			crossPlanted++
			if hit[c] {
				crossFound++
			}
		}
	}
	return q, crossFound, crossPlanted
}

// churnKey locates a churned alert: binary, sink function entry, sink.
type churnKey struct {
	binary string
	entry  uint32
	sink   string
}

// scoreChurn scores one diff step: the step's expected Appeared alerts
// (resolved in the new version's manifest) and Fixed alerts (in the old
// one) against the churn the diff reported.
func scoreChurn(step synth.ChainStep, oldMan, newMan *synth.Manifest, appeared, fixed []churnKey) quality {
	var q quality
	expect := func(m *synth.Manifest, want []synth.ExpectedAlert) map[churnKey]bool {
		out := map[churnKey]bool{}
		for _, e := range want {
			for _, h := range m.Handlers {
				if h.Binary == e.Binary && h.SinkFuncName == e.SinkFuncName {
					out[churnKey{e.Binary, h.SinkEntry, e.Sink}] = true
					break
				}
			}
		}
		return out
	}
	// An expected alert the manifest cannot resolve still counts as
	// planted, so it reads as missed rather than vanishing.
	match := func(planted int, want map[churnKey]bool, got []churnKey) {
		q.planted += planted
		seen := map[churnKey]bool{}
		for _, k := range got {
			q.alerts++
			if want[k] {
				q.good++
				if !seen[k] {
					seen[k] = true
					q.found++
				}
			}
		}
	}
	match(len(step.Appeared), expect(newMan, step.Appeared), appeared)
	match(len(step.Fixed), expect(oldMan, step.Fixed), fixed)
	return q
}
