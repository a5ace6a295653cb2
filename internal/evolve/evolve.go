// Package evolve compares the analysis results of two versions of one
// firmware image: it aligns custom functions across the versions, carries
// alerts and inferred intermediate taint sources through the alignment, and
// classifies each as appeared, fixed, or persisted. Both versions arrive as
// independent cold analyses; this package is the one place that pairs them.
//
// Alignment runs in four tiers, strongest first. Byte-identical binaries map
// every function to itself; a changed binary at the same path takes the
// function map of cfg.AlignReuse (which survives uniform address shifts);
// remaining functions match by shared dynamic-export name; and what is left
// falls back to behavioral similarity — cosine distance over the paper's
// BFV vectors — which is what catches renamed functions whose behavior is
// unchanged.
package evolve

import (
	"context"
	"math"
	"sort"

	"fits/internal/bfv"
	"fits/internal/cfg"
	"fits/internal/infer"
	"fits/internal/loader"
	"fits/internal/score"
	"fits/internal/taint"
)

// Alert is one potentially-vulnerable flow in one binary, as reported.
type Alert = taint.Finding

// ITS is one inferred intermediate taint source: a ranked function entry.
type ITS = score.Ranked

// TargetAnalysis bundles one target's analysis outcome for diffing.
type TargetAnalysis struct {
	Target *loader.Target
	Alerts []Alert
	ITS    []ITS
}

// MatchKind labels the alignment tier that paired two functions.
type MatchKind uint8

// Alignment tiers, strongest first.
const (
	MatchIdentical MatchKind = iota
	MatchReuse
	MatchName
	MatchSimilarity
)

// SimilarityThreshold is the minimum cosine similarity between BFV vectors
// for the fallback alignment tier. Renames barely perturb a function's
// behavioral vector, while genuinely different functions in practice score
// far below this.
const SimilarityThreshold = 0.98

// Rename is a similarity-tier match between two differently named exports.
type Rename struct {
	OldName    string  `json:"old_name"`
	NewName    string  `json:"new_name"`
	OldEntry   uint32  `json:"old_entry"`
	NewEntry   uint32  `json:"new_entry"`
	Similarity float64 `json:"similarity"`
}

// TargetDiff is the version-to-version comparison of one target binary.
type TargetDiff struct {
	Path string
	// Alignment outcome: matched function counts per tier, plus functions
	// only one side has.
	MatchedIdentical  int
	MatchedReuse      int
	MatchedName       int
	MatchedSimilarity int
	UnmatchedNew      int
	UnmatchedOld      int
	Renames           []Rename
	// Alert churn. Persisted alerts are reported in new-version coordinates.
	Appeared  []Alert
	Fixed     []Alert
	Persisted []Alert
	// ITS churn, same convention.
	ITSAppeared  []ITS
	ITSFixed     []ITS
	ITSPersisted []ITS
}

// DiffReport is the full comparison of two firmware versions.
type DiffReport struct {
	Targets []TargetDiff
	// Aggregate alert and ITS churn counts across all targets.
	AlertsAppeared  int
	AlertsFixed     int
	AlertsPersisted int
	ITSAppeared     int
	ITSFixed        int
	ITSPersisted    int
	// Model reuse over the new version's binaries: ReusedFuncs of TotalFuncs
	// custom functions were paired with an unchanged old function, or belong
	// to a byte-identical binary or library.
	ReusedFuncs int
	TotalFuncs  int
	ReuseRatio  float64
}

// BuildReport aligns and diffs two analyzed firmware versions. Targets pair
// by filesystem path; a target present in only one version contributes all
// of its alerts as appeared (new side) or fixed (old side). A changed binary
// at the same path is paired with its old version by cfg.AlignReuse, once.
// The report is deterministic: targets sort by path and every list carries
// explicit sort keys.
func BuildReport(ctx context.Context, oldSide, newSide []TargetAnalysis, cfgn infer.Config) (*DiffReport, error) {
	oldByPath := map[string]*TargetAnalysis{}
	for i := range oldSide {
		oldByPath[oldSide[i].Target.Path] = &oldSide[i]
	}
	report := &DiffReport{}
	matched := map[string]bool{}
	funcMaps := map[string]map[uint32]uint32{}
	for i := range newSide {
		na := &newSide[i]
		oa := oldByPath[na.Target.Path]
		var funcMap map[uint32]uint32
		if oa != nil {
			matched[na.Target.Path] = true
			if ot, nt := oa.Target, na.Target; ot.Hash != nt.Hash {
				funcMap = cfg.AlignReuse(ot.Bin, ot.Model, nt.Bin, nt.Model)
				funcMaps[nt.Path] = funcMap
			}
		}
		td, err := diffTarget(ctx, oa, na, funcMap, cfgn)
		if err != nil {
			return nil, err
		}
		report.Targets = append(report.Targets, *td)
	}
	for i := range oldSide {
		oa := &oldSide[i]
		if matched[oa.Target.Path] {
			continue
		}
		report.Targets = append(report.Targets, TargetDiff{
			Path:         oa.Target.Path,
			UnmatchedOld: len(oa.Target.Model.CustomFuncs()),
			Fixed:        append([]Alert(nil), oa.Alerts...),
			ITSFixed:     append([]ITS(nil), oa.ITS...),
		})
	}
	sort.Slice(report.Targets, func(i, j int) bool {
		return report.Targets[i].Path < report.Targets[j].Path
	})
	for i := range report.Targets {
		td := &report.Targets[i]
		report.AlertsAppeared += len(td.Appeared)
		report.AlertsFixed += len(td.Fixed)
		report.AlertsPersisted += len(td.Persisted)
		report.ITSAppeared += len(td.ITSAppeared)
		report.ITSFixed += len(td.ITSFixed)
		report.ITSPersisted += len(td.ITSPersisted)
	}
	report.ReusedFuncs, report.TotalFuncs = reuseStats(oldByPath, newSide, funcMaps)
	if report.TotalFuncs > 0 {
		report.ReuseRatio = float64(report.ReusedFuncs) / float64(report.TotalFuncs)
	}
	return report, nil
}

// alignment maps function entries between two versions of one binary.
type alignment struct {
	newToOld map[uint32]uint32
	oldToNew map[uint32]uint32
	kind     map[uint32]MatchKind // keyed by new entry
	sim      map[uint32]float64   // similarity-tier score, keyed by new entry
}

func (al *alignment) add(newEntry, oldEntry uint32, k MatchKind) {
	al.newToOld[newEntry] = oldEntry
	al.oldToNew[oldEntry] = newEntry
	al.kind[newEntry] = k
}

func diffTarget(ctx context.Context, oa, na *TargetAnalysis, funcMap map[uint32]uint32, cfgn infer.Config) (*TargetDiff, error) {
	td := &TargetDiff{Path: na.Target.Path}
	if oa == nil {
		td.UnmatchedNew = len(na.Target.Model.CustomFuncs())
		td.Appeared = append([]Alert(nil), na.Alerts...)
		td.ITSAppeared = append([]ITS(nil), na.ITS...)
		return td, nil
	}
	al, err := align(ctx, oa.Target, na.Target, funcMap, cfgn)
	if err != nil {
		return nil, err
	}
	for newEntry, k := range al.kind {
		switch k {
		case MatchIdentical:
			td.MatchedIdentical++
		case MatchReuse:
			td.MatchedReuse++
		case MatchName:
			td.MatchedName++
		case MatchSimilarity:
			td.MatchedSimilarity++
		}
		if k == MatchSimilarity {
			oldEntry := al.newToOld[newEntry]
			oldName, okOld := funcLabel(oa.Target, oldEntry)
			newName, okNew := funcLabel(na.Target, newEntry)
			if okOld && okNew && oldName != newName {
				td.Renames = append(td.Renames, Rename{
					OldName: oldName, NewName: newName,
					OldEntry: oldEntry, NewEntry: newEntry,
					Similarity: al.sim[newEntry],
				})
			}
		}
	}
	sort.Slice(td.Renames, func(i, j int) bool {
		return td.Renames[i].NewEntry < td.Renames[j].NewEntry
	})
	for _, f := range na.Target.Model.CustomFuncs() {
		if _, ok := al.newToOld[f.Entry]; !ok {
			td.UnmatchedNew++
		}
	}
	for _, f := range oa.Target.Model.CustomFuncs() {
		if _, ok := al.oldToNew[f.Entry]; !ok {
			td.UnmatchedOld++
		}
	}
	td.Appeared, td.Fixed, td.Persisted = churnAlerts(al, oa.Alerts, na.Alerts)
	td.ITSAppeared, td.ITSFixed, td.ITSPersisted = churnITS(al, oa.ITS, na.ITS)
	return td, nil
}

// funcLabel names a function entry: dynamic-export name first (all stripped
// production binaries still carry those), debug symbol otherwise.
func funcLabel(t *loader.Target, entry uint32) (string, bool) {
	if name, ok := t.Bin.ExportAt(entry); ok {
		return name, true
	}
	return t.Bin.FuncName(entry)
}

// align pairs the custom functions of two versions of one binary through
// the four tiers; funcMap is cfg.AlignReuse's pairing of the two, nil when
// the binaries are identical.
func align(ctx context.Context, oldT, newT *loader.Target, funcMap map[uint32]uint32, cfgn infer.Config) (*alignment, error) {
	al := &alignment{
		newToOld: map[uint32]uint32{},
		oldToNew: map[uint32]uint32{},
		kind:     map[uint32]MatchKind{},
		sim:      map[uint32]float64{},
	}
	newCustoms := newT.Model.CustomFuncs()
	oldEntries := map[uint32]bool{}
	for _, f := range oldT.Model.CustomFuncs() {
		oldEntries[f.Entry] = true
	}

	// Tier 1: byte-identical binaries map every function to itself.
	if newT.Hash == oldT.Hash {
		for _, f := range newCustoms {
			if oldEntries[f.Entry] {
				al.add(f.Entry, f.Entry, MatchIdentical)
			}
		}
		return al, nil
	}

	// Tier 2: the function map pairs validated unchanged code (including
	// uniformly shifted code).
	for newEntry, oldEntry := range funcMap {
		if oldEntries[oldEntry] {
			al.add(newEntry, oldEntry, MatchReuse)
		}
	}

	// Tier 3: shared dynamic-export names.
	oldByName := map[string]uint32{}
	for _, e := range oldT.Bin.Exports {
		if oldEntries[e.Addr] {
			oldByName[e.Name] = e.Addr
		}
	}
	for _, e := range newT.Bin.Exports {
		if _, taken := al.newToOld[e.Addr]; taken {
			continue
		}
		oldEntry, ok := oldByName[e.Name]
		if !ok {
			continue
		}
		if _, taken := al.oldToNew[oldEntry]; taken {
			continue
		}
		if _, ok := newT.Model.FuncAt(e.Addr); !ok {
			continue
		}
		al.add(e.Addr, oldEntry, MatchName)
	}

	// Tier 4: behavioral similarity over the remaining functions.
	if err := alignBySimilarity(ctx, al, oldT, newT, cfgn); err != nil {
		return nil, err
	}
	return al, nil
}

// alignBySimilarity greedily pairs leftover functions whose BFV vectors are
// near-identical, taking candidate pairs in descending similarity with
// entry-address tie-breaks so the outcome is deterministic.
func alignBySimilarity(ctx context.Context, al *alignment, oldT, newT *loader.Target, cfgn infer.Config) error {
	oldFuncs, oldVecs, err := infer.TargetVectors(ctx, oldT, cfgn)
	if err != nil {
		return err
	}
	newFuncs, newVecs, err := infer.TargetVectors(ctx, newT, cfgn)
	if err != nil {
		return err
	}
	type cand struct {
		newEntry, oldEntry uint32
		sim                float64
	}
	var cands []cand
	for i, nf := range newFuncs {
		if _, taken := al.newToOld[nf.Entry]; taken {
			continue
		}
		for j, of := range oldFuncs {
			if _, taken := al.oldToNew[of.Entry]; taken {
				continue
			}
			if s := cosine(newVecs[i], oldVecs[j]); s >= SimilarityThreshold {
				cands = append(cands, cand{newEntry: nf.Entry, oldEntry: of.Entry, sim: s})
			}
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].sim != cands[j].sim {
			return cands[i].sim > cands[j].sim
		}
		if cands[i].newEntry != cands[j].newEntry {
			return cands[i].newEntry < cands[j].newEntry
		}
		return cands[i].oldEntry < cands[j].oldEntry
	})
	for _, c := range cands {
		if _, taken := al.newToOld[c.newEntry]; taken {
			continue
		}
		if _, taken := al.oldToNew[c.oldEntry]; taken {
			continue
		}
		al.add(c.newEntry, c.oldEntry, MatchSimilarity)
		al.sim[c.newEntry] = c.sim
	}
	return nil
}

func cosine(a, b bfv.Vector) float64 {
	var dot, na, nb float64
	for i := 0; i < bfv.Dim; i++ {
		dot += a[i] * b[i]
		na += a[i] * a[i]
		nb += b[i] * b[i]
	}
	if na == 0 || nb == 0 {
		if na == nb {
			return 1
		}
		return 0
	}
	return dot / math.Sqrt(na*nb)
}

// churnAlerts classifies alerts through the alignment. The first pass
// demands the exact relocated site (old site shifted by the function's
// entry delta) with identical sink, kind and source; a second pass relaxes
// to same-function-same-sink so an alert that merely moved within a patched
// function still counts as persisted.
func churnAlerts(al *alignment, oldAlerts, newAlerts []Alert) (appeared, fixed, persisted []Alert) {
	usedOld := make([]bool, len(oldAlerts))
	usedNew := make([]bool, len(newAlerts))
	match := func(exactSite bool) {
		for i := range newAlerts {
			if usedNew[i] {
				continue
			}
			na := &newAlerts[i]
			oldFunc, ok := al.newToOld[na.Func]
			if !ok {
				continue
			}
			delta := na.Func - oldFunc
			for j := range oldAlerts {
				if usedOld[j] {
					continue
				}
				oa := &oldAlerts[j]
				if oa.Func != oldFunc || oa.Sink != na.Sink || oa.Kind != na.Kind || oa.Source != na.Source {
					continue
				}
				if exactSite && oa.Site+delta != na.Site {
					continue
				}
				usedNew[i], usedOld[j] = true, true
				persisted = append(persisted, *na)
				break
			}
		}
	}
	match(true)
	match(false)
	for i := range newAlerts {
		if !usedNew[i] {
			appeared = append(appeared, newAlerts[i])
		}
	}
	for j := range oldAlerts {
		if !usedOld[j] {
			fixed = append(fixed, oldAlerts[j])
		}
	}
	return appeared, fixed, persisted
}

// churnITS carries the inferred-source lists through the alignment: an old
// ITS whose function maps to a new-side ITS persisted, otherwise it is
// reported fixed; new-side ITSs with no aligned predecessor appeared.
func churnITS(al *alignment, oldITS, newITS []ITS) (appeared, fixed, persisted []ITS) {
	newByEntry := map[uint32]int{}
	for i, its := range newITS {
		newByEntry[its.Entry] = i
	}
	usedNew := make([]bool, len(newITS))
	for _, o := range oldITS {
		newEntry, ok := al.oldToNew[o.Entry]
		if ok {
			if i, hit := newByEntry[newEntry]; hit && !usedNew[i] {
				usedNew[i] = true
				persisted = append(persisted, newITS[i])
				continue
			}
		}
		fixed = append(fixed, o)
	}
	for i := range newITS {
		if !usedNew[i] {
			appeared = append(appeared, newITS[i])
		}
	}
	return appeared, fixed, persisted
}

// reuseStats totals custom functions across the new version's targets and
// their (deduplicated) libraries, counting how many were reused from the
// old version: byte-identical, or paired in the target's function map
// (funcMaps, keyed by path). Only a target with an old counterpart at the
// same path reuses anything, its libraries included.
func reuseStats(oldByPath map[string]*TargetAnalysis, newSide []TargetAnalysis, funcMaps map[string]map[uint32]uint32) (reused, total int) {
	libSeen := map[string]bool{}
	for i := range newSide {
		t := newSide[i].Target
		n := len(t.Model.CustomFuncs())
		total += n
		var old *loader.Target
		if oa := oldByPath[t.Path]; oa != nil {
			old = oa.Target
			if old.Hash == t.Hash {
				reused += n
			} else {
				reused += len(funcMaps[t.Path])
			}
		}
		for name, m := range t.LibModels {
			if libSeen[name] {
				continue
			}
			libSeen[name] = true
			ln := len(m.CustomFuncs())
			total += ln
			if old != nil && old.LibHashes[name] == t.LibHashes[name] {
				reused += ln
			}
		}
	}
	return reused, total
}
