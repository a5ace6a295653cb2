package cfg

// Reuse alignment for firmware evolution chains: AlignReuse pairs the
// functions of a new version of a binary with the functions of its previous
// version whose code is unchanged, possibly relocated by a constant shift.
// Both models are built cold; the aligner only compares them. Version diffs
// (package evolve) are its one caller: the pairing feeds their alignment and
// reuse accounting, never the analysis of either version.
//
// The pairing contract is exact equality, not approximation: a candidate old
// function is accepted only if every one of its instructions re-validates
// against the new binary at the shifted address, with control-flow immediates
// (conditional branches and direct jumps) required to be exactly the old
// target plus the shift. Functions containing computed jumps are never
// paired: their recovery depends on jump-table resolver state.

import (
	"slices"

	"fits/internal/binimg"
	"fits/internal/isa"
)

// reusePlan is AlignReuse's state while it pairs two versions of one binary.
type reusePlan struct {
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

	// funcMap maps each paired new-function entry to the old entry it was
	// validated against.
	funcMap map[uint32]uint32
}

// AlignReuse pairs the custom functions of newModel, the finished model of
// newBin, with the unchanged functions of oldModel, the model of the
// previous version oldBin. It returns the function map: each paired
// new-function entry mapped to the old entry it was validated against.
func AlignReuse(oldBin *binimg.Binary, oldModel *Model, newBin *binimg.Binary, newModel *Model) map[uint32]uint32 {
	p := newReusePlan(oldBin, oldModel, newBin)
	p.align(newModel)
	return p.funcMap
}

// newReusePlan prepares a plan pairing newBin against the recovered model of
// oldBin.
func newReusePlan(oldBin *binimg.Binary, oldModel *Model, newBin *binimg.Binary) *reusePlan {
	p := &reusePlan{
		oldBin:   oldBin,
		oldModel: oldModel,
		newBin:   newBin,
		hints:    map[uint32]uint32{},
		funcMap:  map[uint32]uint32{},
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
func (p *reusePlan) align(newModel *Model) {
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
// On success it records the pairing in the function map and propagates
// hints: the callee of each old direct call is the natural candidate for the
// callee of the matching new call.
func (p *reusePlan) pair(newEntry, oldEntry uint32) bool {
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
			p.instrs = append(p.instrs, nin)
		}
	}

	p.funcMap[newEntry] = oldEntry
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
