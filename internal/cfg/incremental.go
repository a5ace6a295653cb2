package cfg

// Incremental model construction for firmware evolution chains: a ReusePlan
// carries the recovered model of an old version of a binary into the Build of
// a new version, skipping from-scratch recovery for functions whose code is
// unchanged (possibly relocated by a constant shift).
//
// The reuse contract is exact equality, not approximation: a candidate old
// function is accepted only if every one of its instructions re-validates
// against the new binary at the shifted address, with control-flow immediates
// (conditional branches and direct jumps) required to be exactly the old
// target plus the shift. Under that check, recursive descent from the new
// entry would reach exactly the old instruction set shifted, with the same
// leaders — so replaying the old block structure over freshly decoded new
// instructions, through a fresh lifter in the same flat address order,
// reproduces byte-for-byte what a cold buildFunction would have produced.
// Functions containing computed jumps are never reused: their recovery
// depends on jump-table resolver state a plan cannot reproduce.

import (
	"bytes"
	"slices"
	"sort"
	"strconv"

	"fits/internal/binimg"
	"fits/internal/ir"
	"fits/internal/isa"
)

// ReusePlan guides the incremental rebuild of one binary against its previous
// version. Install its Source method as Options.FuncSource, then call
// Finalize with the completed model to compute BFVSafe.
// A plan is not safe for concurrent use; Build is single-threaded per binary,
// which is the only consumer during construction.
type ReusePlan struct {
	oldBin   *binimg.Binary
	oldModel *Model
	newBin   *binimg.Binary

	// deltas are the candidate entry shifts to probe, zero first, then the
	// distinct shifts observed between shared imports and exports.
	deltas []int64
	// hints pairs a new-version entry with its best old-version candidate:
	// seeded from entry points and shared export names, then propagated
	// through the direct call sites of every reused function.
	hints map[uint32]uint32

	// FuncMap maps each reused new-function entry to the old entry it was
	// validated against.
	FuncMap map[uint32]uint32
	// rawEq marks reused functions that are fully identical to the old
	// version at an unchanged address: zero shift and equal raw instructions,
	// immediates included.
	rawEq map[uint32]bool

	// BFVSafe, filled by Finalize, marks reused functions whose behavioral
	// feature vector is provably equal to the old version's: the function and
	// all its callers are raw-identical in place, its callee-name profile is
	// unchanged, and the data sections the string features read are unchanged.
	BFVSafe map[uint32]bool

	// Reused counts functions installed by Source; Total counts the custom
	// (non-stub) functions of the finished new model.
	Reused, Total int
}

// NewReusePlan prepares a plan for rebuilding newBin against the recovered
// model of oldBin.
func NewReusePlan(oldBin *binimg.Binary, oldModel *Model, newBin *binimg.Binary) *ReusePlan {
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

// Source implements Options.FuncSource: it tries the pairing hint for the
// entry first, then every candidate shift, returning the first old function
// that re-validates exactly against the new binary.
func (p *ReusePlan) Source(entry uint32) (*Function, bool) {
	tried := map[uint32]bool{}
	if old, ok := p.hints[entry]; ok {
		tried[old] = true
		if f := p.tryReuse(entry, old); f != nil {
			return f, true
		}
	}
	for _, d := range p.deltas {
		old := uint32(int64(entry) - d)
		if tried[old] {
			continue
		}
		tried[old] = true
		if f := p.tryReuse(entry, old); f != nil {
			return f, true
		}
	}
	return nil, false
}

// tryReuse validates the old function at oldEntry against the new binary at
// newEntry and, on success, returns the replayed function with bookkeeping
// recorded. Any mismatch returns nil and costs nothing but the scan.
func (p *ReusePlan) tryReuse(newEntry, oldEntry uint32) *Function {
	oldF, newInstrs, raw, ok := p.validate(newEntry, oldEntry)
	if !ok {
		return nil
	}
	f := p.relift(oldF, newEntry, int64(newEntry)-int64(oldEntry), newInstrs)
	if f == nil {
		return nil
	}
	p.record(oldF, newEntry, newInstrs, raw)
	return f
}

// validate checks that every instruction of the old function re-validates
// against the new binary at the shifted address; on success it returns the
// new instructions in the old flat block order and whether the function is
// raw-identical (zero shift, equal raw instructions).
func (p *ReusePlan) validate(newEntry, oldEntry uint32) (oldF *Function, newInstrs []isa.Instr, raw, ok bool) {
	oldF, found := p.oldModel.Funcs[oldEntry]
	if !found || oldF.ImportStub || len(oldF.DynJumps) > 0 {
		return nil, nil, false, false
	}
	nb := p.newBin
	if !nb.Text.Contains(newEntry) || (newEntry-nb.Text.Addr)%isa.Width != 0 {
		return nil, nil, false, false
	}
	if _, stub := nb.ImportAtStub(newEntry); stub {
		return nil, nil, false, false
	}
	delta := int64(newEntry) - int64(oldEntry)

	total := 0
	for _, b := range oldF.Blocks {
		total += len(b.Instrs)
	}
	newInstrs = make([]isa.Instr, 0, total)
	raw = delta == 0
	for _, ba := range oldF.Order {
		ob := oldF.Blocks[ba]
		for i, oin := range ob.Instrs {
			oldAddr := ob.Start + uint32(i*isa.Width)
			nin, err := nb.InstrAt(uint32(int64(oldAddr) + delta))
			if err != nil {
				return nil, nil, false, false
			}
			if nin.Op != oin.Op || nin.Rd != oin.Rd || nin.Rs1 != oin.Rs1 || nin.Rs2 != oin.Rs2 {
				return nil, nil, false, false
			}
			switch {
			case oin.Op == isa.OpJr:
				return nil, nil, false, false
			case oin.IsBranch() || oin.Op == isa.OpJmp:
				// Control-flow immediates must be exactly the old target
				// shifted; every other immediate (calls, loads, constants)
				// is taken from the new bytes.
				if uint32(nin.Imm) != uint32(int64(uint32(oin.Imm))+delta) {
					return nil, nil, false, false
				}
			}
			if nin != oin {
				raw = false
			}
			newInstrs = append(newInstrs, nin)
		}
	}
	return oldF, newInstrs, raw, true
}

// record books a successful validation: the function map, raw-identity, the
// reuse counter, and hint propagation — the callee of each old direct call
// is the natural candidate for the callee of the matching new call.
func (p *ReusePlan) record(oldF *Function, newEntry uint32, newInstrs []isa.Instr, raw bool) {
	p.FuncMap[newEntry] = oldF.Entry
	if raw {
		p.rawEq[newEntry] = true
	}
	p.Reused++
	k := 0
	for _, ba := range oldF.Order {
		for _, oin := range oldF.Blocks[ba].Instrs {
			nin := newInstrs[k]
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
}

// Align populates the plan's bookkeeping against an already built model of
// the new binary without relifting anything: every custom function is
// validated against its old-version candidates exactly as a guided Build
// consults Source. Loads that get the new model whole from the cache use
// this, so downstream alignment and reuse accounting are independent of
// cache state. Functions whose recovery involved computed jumps are skipped,
// mirroring the guided build.
func (p *ReusePlan) Align(newModel *Model) {
	for _, f := range newModel.FuncsInOrder() {
		if f.ImportStub || len(f.JumpTables) > 0 || len(f.DynJumps) > 0 {
			continue
		}
		entry := f.Entry
		if _, done := p.FuncMap[entry]; done {
			continue
		}
		tried := map[uint32]bool{}
		if old, ok := p.hints[entry]; ok {
			tried[old] = true
			if p.alignOne(entry, old) {
				continue
			}
		}
		for _, d := range p.deltas {
			old := uint32(int64(entry) - d)
			if tried[old] {
				continue
			}
			tried[old] = true
			if p.alignOne(entry, old) {
				break
			}
		}
	}
}

func (p *ReusePlan) alignOne(newEntry, oldEntry uint32) bool {
	oldF, newInstrs, raw, ok := p.validate(newEntry, oldEntry)
	if !ok {
		return false
	}
	p.record(oldF, newEntry, newInstrs, raw)
	return true
}

// relift replays the old function's recovery over the new binary: old block
// structure, new instruction bytes, a fresh lifter fed in flat ascending
// address order — the exact order a cold buildFunction uses, so temporaries
// number identically and the result is deep-equal to a cold build.
func (p *ReusePlan) relift(oldF *Function, newEntry uint32, delta int64, newInstrs []isa.Instr) *Function {
	nb := p.newBin
	f := &Function{Entry: newEntry, Blocks: make(map[uint32]*BasicBlock, len(oldF.Order)), Order: make([]uint32, 0, len(oldF.Order))}
	if name, ok := nb.FuncName(newEntry); ok {
		f.Name = name
	} else {
		f.Name = "sub_" + strconv.FormatUint(uint64(newEntry), 16)
	}
	// newInstrs is already in flat block order, so each block's Instrs and
	// IR are subslices of it and of one IR array, as in buildFunction.
	irArr := make([]*ir.Block, 0, len(newInstrs))
	lifter := ir.NewLifter()
	lifter.Reserve(newInstrs)
	for _, ba := range oldF.Order {
		ob := oldF.Blocks[ba]
		newStart := uint32(int64(ob.Start) + delta)
		blk := &BasicBlock{Start: newStart}
		start := len(irArr)
		for i := range ob.Instrs {
			nin := newInstrs[len(irArr)]
			a := newStart + uint32(i*isa.Width)
			irb, err := lifter.Lift(a, nin)
			if err != nil {
				return nil
			}
			irArr = append(irArr, irb)
			if nin.IsCall() {
				cs := CallSite{Caller: newEntry, Addr: a, Block: newStart}
				if nin.Op == isa.OpCall {
					cs.Target = uint32(nin.Imm)
					if name, ok := stubName(nb, cs.Target); ok {
						cs.ImportName = name
					}
				} else {
					cs.Indirect = true
				}
				f.Calls = append(f.Calls, cs)
			}
		}
		end := len(irArr)
		blk.Instrs = newInstrs[start:end:end]
		blk.IR = irArr[start:end:end]
		for _, s := range ob.Succs {
			blk.Succs = append(blk.Succs, uint32(int64(s)+delta))
		}
		f.Blocks[newStart] = blk
		f.Order = append(f.Order, newStart)
	}
	slices.Sort(f.Order)
	f.Loops = findLoops(f)
	f.Params = estimateParams(f)
	return f
}

// Finalize counts the finished new model's custom functions and computes
// BFVSafe over them. Nothing is vector-safe unless the data sections are
// unchanged, because string features read rodata through call-site constants.
func (p *ReusePlan) Finalize(newModel *Model) {
	p.Total = 0
	for _, f := range newModel.Funcs {
		if !f.ImportStub {
			p.Total++
		}
	}
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

// RawIdentical reports whether the function at entry was reused fully
// unchanged in place (zero shift, identical raw instructions).
func (p *ReusePlan) RawIdentical(entry uint32) bool { return p.rawEq[entry] }

type reuseSite struct {
	caller, addr uint32
}

// vectorSafe decides whether the feature vector of a raw-identical reused
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
