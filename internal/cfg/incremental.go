package cfg

// Reuse alignment for firmware evolution chains: a ReusePlan pairs the
// functions of a new version of a binary with the functions of its previous
// version whose code is unchanged, possibly relocated by a constant shift.
// Both models are built cold; the plan only compares them.
//
// The pairing contract is exact equality, not approximation: a candidate old
// function is accepted only if every one of its instructions re-validates
// against the new binary at the shifted address, with control-flow immediates
// (conditional branches and direct jumps) required to be exactly the old
// target plus the shift. Functions containing computed jumps are never
// paired: their recovery depends on jump-table resolver state.

import (
	"bytes"
	"slices"
	"sort"

	"fits/internal/binimg"
	"fits/internal/isa"
)

// ReusePlan is the function pairing between two versions of one binary,
// built by AlignReuse. It is read-only once returned.
type ReusePlan struct {
	oldBin   *binimg.Binary
	oldModel *Model
	newBin   *binimg.Binary

	// deltas are the candidate entry shifts to probe, zero first, then the
	// distinct shifts observed between shared imports and exports.
	deltas []int64
	// hints pairs a new-version entry with its best old-version candidate:
	// seeded from entry points and shared export names, then propagated
	// through the direct call sites of every paired function.
	hints map[uint32]uint32
	// instrs is pair's scratch buffer, reused across functions.
	instrs []isa.Instr

	// FuncMap maps each paired new-function entry to the old entry it was
	// validated against.
	FuncMap map[uint32]uint32
	// rawEq marks paired functions that are fully identical to the old
	// version at an unchanged address: zero shift and equal raw instructions,
	// immediates included.
	rawEq map[uint32]bool

	// BFVSafe marks paired functions whose behavioral feature vector is
	// provably equal to the old version's: the function and all its callers
	// are raw-identical in place, its callee-name profile is unchanged, and
	// the data sections the string features read are unchanged.
	BFVSafe map[uint32]bool
}

// AlignReuse pairs the custom functions of newModel, the finished model of
// newBin, with the unchanged functions of oldModel, the model of the
// previous version oldBin, and computes which paired functions keep their
// feature vectors.
func AlignReuse(oldBin *binimg.Binary, oldModel *Model, newBin *binimg.Binary, newModel *Model) *ReusePlan {
	p := newReusePlan(oldBin, oldModel, newBin)
	p.align(newModel)
	p.finalize(newModel)
	return p
}

// newReusePlan prepares a plan pairing newBin against the recovered model of
// oldBin.
func newReusePlan(oldBin *binimg.Binary, oldModel *Model, newBin *binimg.Binary) *ReusePlan {
	p := &ReusePlan{
		oldBin:   oldBin,
		oldModel: oldModel,
		newBin:   newBin,
		hints:    map[uint32]uint32{},
		FuncMap:  map[uint32]uint32{},
		rawEq:    map[uint32]bool{},
		BFVSafe:  map[uint32]bool{},
	}
	if oldBin.Text.Contains(oldBin.Entry) && newBin.Text.Contains(newBin.Entry) {
		p.hints[newBin.Entry] = oldBin.Entry
	}
	deltaSet := map[int64]bool{}
	oldExports := map[string]uint32{}
	for _, e := range oldBin.Exports {
		oldExports[e.Name] = e.Addr
	}
	for _, e := range newBin.Exports {
		if oa, ok := oldExports[e.Name]; ok {
			p.hints[e.Addr] = oa
			deltaSet[int64(e.Addr)-int64(oa)] = true
		}
	}
	oldStubs := map[string]uint32{}
	for _, im := range oldBin.Imports {
		oldStubs[im.Name] = im.Stub
	}
	for _, im := range newBin.Imports {
		if os, ok := oldStubs[im.Name]; ok {
			deltaSet[int64(im.Stub)-int64(os)] = true
		}
	}
	p.deltas = []int64{0}
	var rest []int64
	for d := range deltaSet {
		if d != 0 {
			rest = append(rest, d)
		}
	}
	slices.Sort(rest)
	p.deltas = append(p.deltas, rest...)
	return p
}

// align pairs every custom function of newModel with the first old-version
// candidate that re-validates: its pairing hint first, then every candidate
// shift. Functions whose recovery involved computed jumps are skipped.
func (p *ReusePlan) align(newModel *Model) {
	tried := map[uint32]bool{}
	for _, f := range newModel.FuncsInOrder() {
		if f.ImportStub || len(f.JumpTables) > 0 || len(f.DynJumps) > 0 {
			continue
		}
		entry := f.Entry
		clear(tried)
		if old, ok := p.hints[entry]; ok {
			tried[old] = true
			if p.pair(entry, old) {
				continue
			}
		}
		for _, d := range p.deltas {
			old := uint32(int64(entry) - d)
			if tried[old] {
				continue
			}
			tried[old] = true
			if p.pair(entry, old) {
				break
			}
		}
	}
}

// pair checks that every instruction of the old function at oldEntry
// re-validates against the new binary at the address shifted to newEntry.
// On success it records the pairing: the function map, raw identity (zero
// shift, equal raw instructions), and hint propagation — the callee of each
// old direct call is the natural candidate for the callee of the matching
// new call.
func (p *ReusePlan) pair(newEntry, oldEntry uint32) bool {
	oldF, found := p.oldModel.Funcs[oldEntry]
	if !found || oldF.ImportStub || len(oldF.DynJumps) > 0 {
		return false
	}
	nb := p.newBin
	if !nb.Text.Contains(newEntry) || (newEntry-nb.Text.Addr)%isa.Width != 0 {
		return false
	}
	if _, stub := nb.ImportAtStub(newEntry); stub {
		return false
	}
	delta := int64(newEntry) - int64(oldEntry)

	// The new instructions, in the old flat block order.
	p.instrs = p.instrs[:0]
	raw := delta == 0
	for _, ba := range oldF.Order {
		ob := oldF.Blocks[ba]
		for i, oin := range ob.Instrs {
			oldAddr := ob.Start + uint32(i*isa.Width)
			nin, err := nb.InstrAt(uint32(int64(oldAddr) + delta))
			if err != nil {
				return false
			}
			if nin.Op != oin.Op || nin.Rd != oin.Rd || nin.Rs1 != oin.Rs1 || nin.Rs2 != oin.Rs2 {
				return false
			}
			switch {
			case oin.Op == isa.OpJr:
				return false
			case oin.IsBranch() || oin.Op == isa.OpJmp:
				// Control-flow immediates must be exactly the old target
				// shifted; every other immediate (calls, loads, constants)
				// is taken from the new bytes.
				if uint32(nin.Imm) != uint32(int64(uint32(oin.Imm))+delta) {
					return false
				}
			}
			if nin != oin {
				raw = false
			}
			p.instrs = append(p.instrs, nin)
		}
	}

	p.FuncMap[newEntry] = oldEntry
	if raw {
		p.rawEq[newEntry] = true
	}
	k := 0
	for _, ba := range oldF.Order {
		for _, oin := range oldF.Blocks[ba].Instrs {
			nin := p.instrs[k]
			k++
			if oin.Op != isa.OpCall {
				continue
			}
			nt := uint32(nin.Imm)
			if _, seen := p.hints[nt]; !seen {
				p.hints[nt] = uint32(oin.Imm)
			}
		}
	}
	return true
}

// finalize computes BFVSafe over the paired functions of the finished new
// model. Nothing is vector-safe unless the data sections are unchanged,
// because string features read rodata through call-site constants.
func (p *ReusePlan) finalize(newModel *Model) {
	dataOK := sectionEqual(p.oldBin.Rodata, p.newBin.Rodata) &&
		sectionEqual(p.oldBin.Data, p.newBin.Data) &&
		p.oldBin.BssAddr == p.newBin.BssAddr &&
		p.oldBin.BssSize == p.newBin.BssSize
	if !dataOK {
		return
	}
	for entry := range p.rawEq {
		if p.vectorSafe(entry, newModel) {
			p.BFVSafe[entry] = true
		}
	}
}

type reuseSite struct {
	caller, addr uint32
}

// vectorSafe decides whether the feature vector of a raw-identical paired
// function is guaranteed equal to its old version's: the post-resolution
// callee-name profile must match site for site, and every caller must itself
// be raw-identical with the same caller-site multiset (caller bodies feed the
// call-site string features).
func (p *ReusePlan) vectorSafe(entry uint32, newModel *Model) bool {
	newF, ok := newModel.Funcs[entry]
	if !ok {
		return false
	}
	oldF, ok := p.oldModel.Funcs[entry]
	if !ok {
		return false
	}
	if len(newF.Calls) != len(oldF.Calls) {
		return false
	}
	for i := range newF.Calls {
		ncs, ocs := &newF.Calls[i], &oldF.Calls[i]
		if ncs.Addr != ocs.Addr || ncs.Indirect != ocs.Indirect {
			return false
		}
		if reuseCalleeName(p.newBin, ncs) != reuseCalleeName(p.oldBin, ocs) {
			return false
		}
	}
	nc, oc := newModel.Callers[entry], p.oldModel.Callers[entry]
	if len(nc) != len(oc) {
		return false
	}
	ns := make([]reuseSite, len(nc))
	for i, cs := range nc {
		if !p.rawEq[cs.Caller] {
			return false
		}
		ns[i] = reuseSite{cs.Caller, cs.Addr}
	}
	os := make([]reuseSite, len(oc))
	for i, cs := range oc {
		os[i] = reuseSite{cs.Caller, cs.Addr}
	}
	sortReuseSites(ns)
	sortReuseSites(os)
	return slices.Equal(ns, os)
}

func sortReuseSites(s []reuseSite) {
	sort.Slice(s, func(i, j int) bool {
		if s[i].caller != s[j].caller {
			return s[i].caller < s[j].caller
		}
		return s[i].addr < s[j].addr
	})
}

func reuseCalleeName(bin *binimg.Binary, cs *CallSite) string {
	if cs.ImportName != "" {
		return cs.ImportName
	}
	if cs.Target != 0 {
		if name, ok := bin.ExportAt(cs.Target); ok {
			return name
		}
	}
	return ""
}

func sectionEqual(a, b binimg.Section) bool {
	return a.Addr == b.Addr && bytes.Equal(a.Data, b.Data)
}
