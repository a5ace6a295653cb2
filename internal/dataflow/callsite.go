package dataflow

import (
	"sort"

	"fits/internal/binimg"
	"fits/internal/cfg"
	"fits/internal/intern"
	"fits/internal/ir"
	"fits/internal/isa"
)

// StringFacts are the interprocedural flow features of a function (Table 1,
// features 10 and 11): whether any caller passes a string constant argument,
// and the distinct strings appearing across all call sites.
type StringFacts struct {
	ArgsContainString bool
	Strings           []string // sorted, de-duplicated
}

// CallSiteStrings analyzes every call site of the function at entry
// recorded in the model, backtracking the first nargs argument registers per
// the paper's Table 2 and classifying the resulting constants against the
// binary's sections. nargs is the callee's parameter count, or the known
// arity of an anchor import stub, whose trampoline reads no registers of its
// own. Classified constants are canonicalized through tab, so a string
// passed at many call sites across many functions (format strings,
// configuration keys) costs one allocation per analysis instead of one per
// sighting. A nil tab still materializes each distinct string only once per
// call — classification works on section views and the map lookup below is
// conversion-free.
func CallSiteStrings(bin *binimg.Binary, m *cfg.Model, entry uint32, nargs int, tab *intern.Table) StringFacts {
	if nargs > 4 {
		nargs = 4
	}
	set := map[string]bool{}
	var facts StringFacts
	for _, cs := range m.Callers[entry] {
		caller, ok := m.FuncAt(cs.Caller)
		if !ok {
			continue
		}
		for arg := 0; arg < nargs; arg++ {
			c, ok := BacktrackRegister(caller, cs.Addr, isa.Reg(arg))
			if !ok {
				continue
			}
			if v, ok := classifyStringBytes(bin, c); ok {
				facts.ArgsContainString = true
				if !set[string(v)] { // no-alloc lookup on repeats
					set[tab.Bytes(v)] = true
				}
			}
		}
	}
	for s := range set {
		facts.Strings = append(facts.Strings, s)
	}
	sort.Strings(facts.Strings)
	return facts
}

// OriginKind classifies what an argument register resolves to.
type OriginKind uint8

// Argument origins.
const (
	OriginUnknown OriginKind = iota
	OriginConst
	OriginParam
)

// ArgOrigin is the result of backtracking an argument register.
type ArgOrigin struct {
	Kind  OriginKind
	Const uint32 // valid for OriginConst
	Param int    // parameter index for OriginParam
}

// BacktrackRegister walks instructions backwards from (not including) the
// call at callAddr inside caller, tracking reg through the IR statements of
// Table 2 until it can be represented by a constant:
//
//	PUT(r) = const          -> done
//	PUT(r) = t, t = GET(r') -> continue with r'
//	t = Binop(t', const)    -> continue through t' (additive offset folded)
//	t = Load(sp + c)        -> continue through the stack slot's last store
//
// The walk follows unique predecessors across block boundaries and gives up
// at merge points, as the paper's analysis does.
func BacktrackRegister(caller *cfg.Function, callAddr uint32, reg isa.Reg) (uint32, bool) {
	o := BacktrackArg(caller, callAddr, reg)
	if o.Kind == OriginConst {
		return o.Const, true
	}
	return 0, false
}

// BacktrackArg is BacktrackRegister extended with parameter origins: when
// the walk reaches the function entry still tracking an argument register
// (or its spill slot), the value is the caller's own parameter, enabling
// interprocedural argument binding.
func BacktrackArg(caller *cfg.Function, callAddr uint32, reg isa.Reg) ArgOrigin {
	blk := caller.BlockAt(callAddr)
	if blk == nil {
		return ArgOrigin{}
	}
	var preds map[uint32][]uint32 // built on the first block boundary crossed

	// Tracking target: a register or a stack slot (entry-SP relative; the
	// compiled frame keeps SP constant through the body).
	trackReg := true
	target := reg
	var slot int32
	offset := uint32(0)
	limit := 512
	startIdx := indexOf(blk, callAddr) - 1
	for hops := 0; hops < 64; hops++ {
		for i := startIdx; i >= 0; i-- {
			if limit--; limit < 0 {
				return ArgOrigin{}
			}
			stmts := caller.InstrIR(blk, i)
			var src ir.Arg
			if trackReg {
				a, found, stop := putsTo(stmts, target)
				if stop {
					return ArgOrigin{}
				}
				if !found {
					continue
				}
				src = a
			} else {
				a, found := storesToSlot(stmts, slot)
				if !found {
					continue
				}
				src = a
			}
			o := traceArg(stmts, src, 0)
			switch o.kind {
			case traceConst:
				return ArgOrigin{Kind: OriginConst, Const: o.c + offset + o.off}
			case traceReg:
				trackReg, target = true, o.reg
				offset += o.off
			case traceSlot:
				trackReg, slot = false, o.slot
				offset += o.off
			default:
				return ArgOrigin{}
			}
		}
		if blk.Start == caller.Entry {
			// Reached the function entry: an argument register still being
			// tracked is the caller's own parameter.
			if trackReg && target < 4 && int(target) < caller.Params && offset == 0 {
				return ArgOrigin{Kind: OriginParam, Param: int(target)}
			}
			return ArgOrigin{}
		}
		if preds == nil {
			preds = caller.Predecessors()
		}
		ps := preds[blk.Start]
		if len(ps) != 1 {
			return ArgOrigin{}
		}
		blk = caller.Blocks[ps[0]]
		startIdx = len(blk.Instrs) - 1
	}
	return ArgOrigin{}
}

// putsTo returns the operand assigned to reg by one lifted instruction's
// statements. stop reports that the register is clobbered here with an
// untrackable value (a call or system primitive), which terminates
// backtracking.
func putsTo(stmts []ir.Stmt, reg isa.Reg) (a ir.Arg, found, stop bool) {
	for i := len(stmts) - 1; i >= 0; i-- {
		switch s := &stmts[i]; s.Kind {
		case ir.Put:
			if s.R() == reg {
				return s.A, true, false
			}
		case ir.Call, ir.Tramp:
			// A call clobbers argument registers: the value does not
			// originate before it.
			if reg < 4 || reg == isa.LR {
				return ir.Arg{}, false, true
			}
		case ir.Sys:
			if reg == isa.R0 {
				return ir.Arg{}, false, true
			}
		}
	}
	return ir.Arg{}, false, false
}

// tempDef returns the statement of one lifted instruction that last writes
// temporary t.
func tempDef(stmts []ir.Stmt, t ir.Temp) (*ir.Stmt, bool) {
	for i := len(stmts) - 1; i >= 0; i-- {
		if s := &stmts[i]; s.Writes() && s.T() == t {
			return s, true
		}
	}
	return nil, false
}

// spOffset resolves an address operand within one lifted instruction to an
// SP-relative offset.
func spOffset(stmts []ir.Stmt, a ir.Arg, depth int) (int32, bool) {
	if depth > 8 {
		return 0, false
	}
	switch a.Kind {
	case ir.ArgReg:
		return 0, a.Reg() == isa.SP
	case ir.ArgTmp:
		d, ok := tempDef(stmts, a.Temp())
		if !ok {
			return 0, false
		}
		switch {
		case d.Kind == ir.Get:
			return spOffset(stmts, d.A, depth+1)
		case d.Kind == ir.Bin && d.Op == ir.Add && d.B.Kind == ir.ArgConst:
			if base, ok := spOffset(stmts, d.A, depth+1); ok {
				return base + d.B.V, true
			}
		}
	}
	return 0, false
}

// storesToSlot returns the value operand stored to [sp+slot] by one lifted
// instruction, if any.
func storesToSlot(stmts []ir.Stmt, slot int32) (ir.Arg, bool) {
	for i := len(stmts) - 1; i >= 0; i-- {
		s := &stmts[i]
		if s.Kind != ir.Store {
			continue
		}
		if off, ok := spOffset(stmts, s.A, 0); ok && off == slot {
			return s.B, true
		}
	}
	return ir.Arg{}, false
}

// trace result kinds.
type traceKind uint8

const (
	traceFail traceKind = iota
	traceConst
	traceReg
	traceSlot
)

type traceResult struct {
	kind traceKind
	c    uint32
	reg  isa.Reg
	slot int32
	off  uint32
}

// traceArg resolves an operand within one lifted instruction to a
// constant, a register to keep tracking, or a stack slot, accumulating
// additive constant offsets.
func traceArg(stmts []ir.Stmt, a ir.Arg, depth int) traceResult {
	if depth > 16 {
		return traceResult{}
	}
	switch a.Kind {
	case ir.ArgConst:
		return traceResult{kind: traceConst, c: uint32(a.V)}
	case ir.ArgReg:
		return traceResult{kind: traceReg, reg: a.Reg()}
	case ir.ArgTmp:
		d, ok := tempDef(stmts, a.Temp())
		if !ok {
			return traceResult{}
		}
		switch d.Kind {
		case ir.Get:
			return traceArg(stmts, d.A, depth+1)
		case ir.Bin:
			// Only additive offsets with a constant operand are folded,
			// per Table 2's Binop(t, constant) rule.
			if d.Op != ir.Add {
				return traceResult{}
			}
			if d.B.Kind == ir.ArgConst {
				r := traceArg(stmts, d.A, depth+1)
				r.off += uint32(d.B.V)
				return r
			}
			if d.A.Kind == ir.ArgConst {
				r := traceArg(stmts, d.B, depth+1)
				r.off += uint32(d.A.V)
				return r
			}
		case ir.Load:
			// A word reloaded from a stack slot continues through the
			// slot's last store.
			if d.Size != isa.WordSize {
				return traceResult{}
			}
			if off, ok := spOffset(stmts, d.A, 0); ok {
				return traceResult{kind: traceSlot, slot: off}
			}
		}
	}
	return traceResult{}
}

// StringArg recovers argument register reg of the call at callAddr inside
// caller as a string constant: BacktrackRegister, then
// ClassifyStringConstant.
func StringArg(bin *binimg.Binary, caller *cfg.Function, callAddr uint32, reg isa.Reg) (string, bool) {
	c, ok := BacktrackRegister(caller, callAddr, reg)
	if !ok {
		return "", false
	}
	return ClassifyStringConstant(bin, c)
}

// ClassifyStringConstant decides whether a constant is a string address
// following the paper's section rules: rodata pointers are strings; data
// pointers are dereferenced once (GOT-style indirection) and accepted if the
// referenced location is itself a printable string in rodata or data.
func ClassifyStringConstant(bin *binimg.Binary, c uint32) (string, bool) {
	v, ok := classifyStringBytes(bin, c)
	if !ok {
		return "", false
	}
	return string(v), true
}

// classifyStringBytes is ClassifyStringConstant without materializing the
// string: the returned bytes view the binary's sections, so callers that
// intern or deduplicate decide for themselves when to allocate.
func classifyStringBytes(bin *binimg.Binary, c uint32) ([]byte, bool) {
	switch bin.SectionOf(c) {
	case "rodata":
		v, ok := bin.CStringBytes(c)
		if ok && printable(v) {
			return v, true
		}
	case "data":
		// PT points into data: retrieve MT and follow one level.
		if mt, ok := bin.WordAt(c); ok {
			sec := bin.SectionOf(mt)
			if sec == "rodata" || sec == "data" {
				if v, ok := bin.CStringBytes(mt); ok && printable(v) {
					return v, true
				}
			}
		}
		// Otherwise the data bytes themselves may hold a hint string.
		if v, ok := bin.CStringBytes(c); ok && printable(v) && len(v) > 0 {
			return v, true
		}
	}
	return nil, false
}

func printable(s []byte) bool {
	if len(s) == 0 {
		return false
	}
	for i := 0; i < len(s); i++ {
		if s[i] < 0x20 || s[i] > 0x7e {
			return false
		}
	}
	return true
}

func indexOf(b *cfg.BasicBlock, addr uint32) int {
	return int(addr-b.Start) / isa.Width
}
