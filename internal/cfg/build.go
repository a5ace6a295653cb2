package cfg

import (
	"encoding/binary"
	"fmt"
	"slices"
	"strconv"

	"fits/internal/binimg"
	"fits/internal/ir"
	"fits/internal/isa"
	"fits/internal/stagetime"
)

// IndirectResolver resolves the possible targets of an indirect call site.
// The ucse package provides the production implementation.
type IndirectResolver func(bin *binimg.Binary, f *Function, site CallSite) []uint32

// JumpTableResolver resolves a computed jump's possible targets (switch
// jump tables). The ucse package provides the production implementation.
type JumpTableResolver func(bin *binimg.Binary, f *Function, addr uint32) []uint32

// Options configures model construction.
type Options struct {
	// Resolver handles indirect call sites; nil leaves them unresolved.
	Resolver IndirectResolver
	// JumpResolver handles computed jumps; nil leaves switch-case blocks
	// unrecovered.
	JumpResolver JumpTableResolver
	// Probe, when set, opens a CFG span around each Build and a nested Lift
	// span around each function's recovery and lifting. Models are
	// unaffected.
	Probe stagetime.Probe
}

// maxFuncs bounds discovery as a runaway guard.
const maxFuncs = 1 << 16

// Build recovers the whole-binary model: functions, CFGs, loops, parameter
// estimates, and the (reverse) call graph, iterating discovery and indirect
// resolution to a fixed point.
func Build(bin *binimg.Binary, opts Options) (*Model, error) {
	defer stagetime.Open(opts.Probe, stagetime.CFG)()
	m := &Model{Bin: bin, Funcs: map[uint32]*Function{}, Callers: map[uint32][]CallSite{}}
	x := newTextIndex(bin)

	// Resolved jump-table targets per function entry, applied on (re)build.
	jumpTables := map[uint32]map[uint32][]uint32{}
	worklist := seeds(bin)
	process := func() error {
		for len(worklist) > 0 {
			entry := worklist[len(worklist)-1]
			worklist = worklist[:len(worklist)-1]
			if _, done := m.Funcs[entry]; done {
				continue
			}
			if len(m.Funcs) >= maxFuncs {
				return fmt.Errorf("cfg: %s: function limit %d exceeded", bin.Name, maxFuncs)
			}
			lifted := stagetime.Open(opts.Probe, stagetime.Lift)
			f, err := buildFunction(bin, x, entry, jumpTables[entry])
			lifted()
			if err != nil {
				// Unparseable seed (e.g. a data word that happened to look
				// like a code pointer): skip it, as real tools do.
				continue
			}
			m.Funcs[entry] = f
			for _, cs := range f.Calls {
				if cs.Target != 0 {
					worklist = append(worklist, cs.Target)
				}
			}
		}
		return nil
	}

	// resolveJumpTables runs one pass over unresolved computed jumps; newly
	// resolved functions are rebuilt with their switch-case blocks. Functions
	// are visited in ascending entry order and rebuilds are deferred past the
	// sweep: clipJumpTargets bounds each table by the neighboring function
	// entries, so resolving against a mid-sweep mutated function set would
	// make recovered CFGs depend on map iteration order.
	resolveJumpTables := func() bool {
		var rebuild []uint32
		for _, f := range m.FuncsInOrder() {
			entry := f.Entry
			resolvedAny := false
			for _, addr := range f.DynJumps {
				if _, done := f.JumpTables[addr]; done {
					continue
				}
				targets := opts.JumpResolver(bin, f, addr)
				targets = clipJumpTargets(m, x, f, targets)
				if len(targets) == 0 {
					continue
				}
				if jumpTables[entry] == nil {
					jumpTables[entry] = map[uint32][]uint32{}
				}
				jumpTables[entry][addr] = targets
				resolvedAny = true
			}
			if resolvedAny {
				rebuild = append(rebuild, entry)
			}
		}
		for _, entry := range rebuild {
			delete(m.Funcs, entry)
			worklist = append(worklist, entry)
		}
		return len(rebuild) > 0
	}
	// resolveIndirect runs one resolution pass over every unresolved
	// indirect site, reporting whether anything changed.
	resolveIndirect := func() bool {
		changed := false
		for _, f := range m.FuncsInOrder() {
			var extras []CallSite
			for i := range f.Calls {
				cs := &f.Calls[i]
				if !cs.Indirect || cs.Target != 0 {
					continue
				}
				targets := opts.Resolver(bin, f, *cs)
				if len(targets) == 0 {
					continue
				}
				slices.Sort(targets)
				// First target fills the site; extra targets become
				// additional synthetic sites at the same instruction.
				cs.Target = targets[0]
				if name, ok := stubName(bin, targets[0]); ok {
					cs.ImportName = name
				}
				for _, t := range targets[1:] {
					extra := *cs
					extra.Target = t
					if name, ok := stubName(bin, t); ok {
						extra.ImportName = name
					} else {
						extra.ImportName = ""
					}
					extras = append(extras, extra)
				}
				for _, t := range targets {
					worklist = append(worklist, t)
				}
				changed = true
			}
			f.Calls = append(f.Calls, extras...)
		}
		return changed
	}

	// prologueScan seeds functions for unclaimed code that starts with the
	// standard prologue, reporting whether any seed was added.
	prologueScan := func() bool {
		if x.covered == nil {
			x.covered = newBitset(len(x.ins))
		} else {
			clear(x.covered)
		}
		for _, f := range m.Funcs {
			for _, b := range f.Blocks {
				for a := b.Start; a < b.End(); a += isa.Width {
					if i, ok := x.word(a); ok {
						x.covered.set(i)
					}
				}
			}
		}
		added := false
		for i, in := range x.ins {
			if in.Op != isa.OpPush || in.Rs1 != isa.LR || !x.ok.has(i) || x.covered.has(i) {
				continue
			}
			addr := x.text.Addr + uint32(i*isa.Width)
			if _, claimed := m.Funcs[addr]; claimed {
				continue
			}
			worklist = append(worklist, addr)
			added = true
		}
		return added
	}

	// Iterate discovery, indirect resolution and the prologue scan to a
	// fixed point: resolved targets expose new functions, newly scanned
	// functions contain new indirect sites.
	for round := 0; ; round++ {
		if err := process(); err != nil {
			return nil, err
		}
		changed := false
		if opts.Resolver != nil && resolveIndirect() {
			changed = true
		}
		if opts.JumpResolver != nil && resolveJumpTables() {
			changed = true
		}
		if prologueScan() {
			changed = true
		}
		if !changed || round > 16 {
			break
		}
	}

	// Reverse call graph, restricted to successfully recovered callees
	// (a call target that failed to parse is a rejected seed, not a node).
	for _, f := range m.FuncsInOrder() {
		for _, cs := range f.Calls {
			if cs.Target == 0 {
				continue
			}
			if _, ok := m.Funcs[cs.Target]; ok {
				m.Callers[cs.Target] = append(m.Callers[cs.Target], cs)
			}
		}
	}
	return m, nil
}

// clipJumpTargets keeps only targets inside the jumping function's extent:
// past its entry and before the next known function or the end of text. A
// scanned table can over-read into a neighboring function's table; layout
// bounds discard the overshoot. A target that is misaligned or does not
// decode is dropped too: the rebuild would fail on it and lose the function.
func clipJumpTargets(m *Model, x *textIndex, f *Function, targets []uint32) []uint32 {
	bound := m.Bin.Text.End()
	for entry := range m.Funcs {
		if entry > f.Entry && entry < bound {
			bound = entry
		}
	}
	var out []uint32
	for _, t := range targets {
		if t > f.Entry && t < bound && x.at(x.ok, t) {
			out = append(out, t)
		}
	}
	return out
}

// seeds returns initial function entries: program entry, exports, and
// instruction-aligned text pointers found in the data section.
func seeds(bin *binimg.Binary) []uint32 {
	var out []uint32
	if bin.Text.Contains(bin.Entry) {
		out = append(out, bin.Entry)
	}
	for _, e := range bin.Exports {
		if bin.Text.Contains(e.Addr) {
			out = append(out, e.Addr)
		}
	}
	d := bin.Data.Data
	for off := 0; off+isa.WordSize <= len(d); off += isa.WordSize {
		v := binary.LittleEndian.Uint32(d[off:])
		if bin.Text.Contains(v) && (v-bin.Text.Addr)%isa.Width == 0 {
			out = append(out, v)
		}
	}
	return out
}

func stubName(bin *binimg.Binary, addr uint32) (string, bool) {
	im, ok := bin.ImportAtStub(addr)
	if !ok {
		return "", false
	}
	return im.Name, true
}

// buildFunction recovers one function by recursive descent from entry,
// reading instructions from the binary's text index x. extraJumps supplies
// resolved targets for computed jumps, letting switch-case blocks join the
// CFG on rebuild.
func buildFunction(bin *binimg.Binary, x *textIndex, entry uint32, extraJumps map[uint32][]uint32) (*Function, error) {
	ei, ok := x.word(entry)
	if !ok {
		return nil, fmt.Errorf("cfg: bad entry 0x%x", entry)
	}

	// Import stubs are single-trampoline functions.
	if im, ok := bin.ImportAtStub(entry); ok {
		if !x.ok.has(ei) {
			return nil, fmt.Errorf("cfg: undecodable import stub at 0x%x", entry)
		}
		ins := []isa.Instr{x.ins[ei]}
		lifter := ir.NewLifter()
		lifter.Reserve(ins)
		irb, err := lifter.Lift(entry, ins[0])
		if err != nil {
			return nil, err
		}
		blk := &BasicBlock{Start: entry, Instrs: ins, IR: []*ir.Block{irb}}
		return &Function{
			Entry:      entry,
			Name:       im.Name + "@plt",
			Blocks:     map[uint32]*BasicBlock{entry: blk},
			Order:      []uint32{entry},
			ImportStub: true,
			ImportName: im.Name,
		}, nil
	}

	// Pass 1: reachable instructions and leaders, marked in the text
	// index's scratch bitsets, which reset clears on every return.
	defer x.reset()
	x.markLeader(entry)
	work := append(x.work, entry)
	for len(work) > 0 {
		addr := work[len(work)-1]
		work = work[:len(work)-1]
		for {
			i, ok := x.word(addr)
			if ok && x.reach.has(i) {
				break
			}
			if !ok || !x.ok.has(i) {
				return nil, fmt.Errorf("cfg: no instruction at 0x%x", addr)
			}
			in := x.ins[i]
			x.reach.set(i)
			x.addrs = append(x.addrs, addr)
			next := addr + isa.Width
			if in.IsBranch() {
				t := uint32(in.Imm)
				x.markLeader(t)
				x.markLeader(next)
				work = append(work, t)
				addr = next
				continue
			}
			switch in.Op {
			case isa.OpJmp:
				t := uint32(in.Imm)
				x.markLeader(t)
				work = append(work, t)
			case isa.OpJr:
				for _, t := range extraJumps[addr] {
					x.markLeader(t)
					work = append(work, t)
				}
			case isa.OpRet, isa.OpTramp:
				// terminal for this path
			default:
				addr = next
				continue
			}
			break
		}
	}
	x.work = work

	// Pass 2: form blocks from leaders.
	addrs := x.addrs
	slices.Sort(addrs)
	instrArr := make([]isa.Instr, len(addrs))
	ncalls := 0
	for k, a := range addrs {
		i, _ := x.word(a)
		instrArr[k] = x.ins[i]
		if instrArr[k].IsCall() {
			ncalls++
		}
	}

	// Count block boundaries up front so the block array and the shared
	// instruction/IR backing arrays are allocated exactly once; every block's
	// Instrs and IR are then contiguous subslices of those arrays. The block
	// array is never appended to beyond its exact capacity, so *BasicBlock
	// pointers stay stable.
	nblocks := 0
	for i, a := range addrs {
		if i == 0 || x.at(x.leader, a) || addrs[i-1]+isa.Width != a || instrArr[i-1].EndsBlock() {
			nblocks++
		}
	}

	f := &Function{
		Entry:  entry,
		Blocks: make(map[uint32]*BasicBlock, nblocks),
		Order:  make([]uint32, 0, nblocks),
	}
	if name, ok := bin.FuncName(entry); ok {
		f.Name = name
	} else {
		f.Name = "sub_" + strconv.FormatUint(uint64(entry), 16)
	}
	if ncalls > 0 {
		f.Calls = make([]CallSite, 0, ncalls)
	}
	blockArr := make([]BasicBlock, 0, nblocks)
	irArr := make([]*ir.Block, 0, len(addrs))

	lifter := ir.NewLifter()
	lifter.Reserve(instrArr)
	var cur *BasicBlock
	curStart := 0 // index into instrArr/irArr where cur's run begins
	flush := func() {
		if cur != nil {
			cur.Instrs = instrArr[curStart:len(irArr):len(irArr)]
			cur.IR = irArr[curStart:len(irArr):len(irArr)]
			f.Blocks[cur.Start] = cur
			f.Order = append(f.Order, cur.Start)
			cur = nil
		}
	}
	for i, a := range addrs {
		in := instrArr[i]
		if x.at(x.leader, a) || cur == nil || (i > 0 && addrs[i-1]+isa.Width != a) {
			flush()
			blockArr = append(blockArr, BasicBlock{Start: a})
			cur = &blockArr[len(blockArr)-1]
			curStart = len(irArr)
		}
		irb, err := lifter.Lift(a, in)
		if err != nil {
			return nil, err
		}
		irArr = append(irArr, irb)
		if in.IsCall() {
			cs := CallSite{Caller: entry, Addr: a, Block: cur.Start}
			if in.Op == isa.OpCall {
				cs.Target = uint32(in.Imm)
				if name, ok := stubName(bin, cs.Target); ok {
					cs.ImportName = name
				}
			} else {
				cs.Indirect = true
			}
			f.Calls = append(f.Calls, cs)
		}
		terminal := in.EndsBlock()
		nextIsLeader := i+1 < len(addrs) && (x.at(x.leader, addrs[i+1]) || addrs[i+1] != a+isa.Width)
		if terminal || nextIsLeader {
			// Successors.
			next := a + isa.Width
			switch {
			case in.IsBranch():
				cur.Succs = append(cur.Succs, uint32(in.Imm))
				if x.at(x.reach, next) {
					cur.Succs = append(cur.Succs, next)
				}
			case in.Op == isa.OpJmp:
				cur.Succs = append(cur.Succs, uint32(in.Imm))
			case in.Op == isa.OpJr:
				cur.Succs = append(cur.Succs, extraJumps[a]...)
			case in.Op == isa.OpRet, in.Op == isa.OpTramp:
				// no static successors
			default:
				if x.at(x.reach, next) {
					cur.Succs = append(cur.Succs, next)
				}
			}
			flush()
		}
	}
	flush()

	// Record computed jumps and any resolutions applied. JumpTables stays
	// nil (all reads are nil-safe) unless a resolution actually landed:
	// computed jumps are rare and most functions have none.
	for _, ba := range f.Order {
		b := f.Blocks[ba]
		for i, in := range b.Instrs {
			if in.Op == isa.OpJr {
				addr := b.Start + uint32(i*isa.Width)
				f.DynJumps = append(f.DynJumps, addr)
				if ts := extraJumps[addr]; len(ts) > 0 {
					if f.JumpTables == nil {
						f.JumpTables = map[uint32][]uint32{}
					}
					f.JumpTables[addr] = append([]uint32(nil), ts...)
				}
			}
		}
	}
	slices.Sort(f.DynJumps)

	f.Loops = findLoops(f)
	f.Params = estimateParams(f)
	return f, nil
}

// estimateParams counts argument registers (r0..r3) read before written,
// scanning blocks in address order — the standard stripped-binary heuristic.
func estimateParams(f *Function) int {
	// Only r0..r3 matter, so two tiny arrays beat two heap maps on a path
	// that runs once per recovered function.
	var written, used [4]bool
	var scanExpr func(e ir.Expr)
	scanExpr = func(e ir.Expr) {
		switch e := e.(type) {
		case *ir.Get:
			if e.R < 4 && !written[e.R] {
				used[e.R] = true
			}
		case *ir.Load:
			scanExpr(e.Addr)
		case *ir.Binop:
			scanExpr(e.L)
			scanExpr(e.R)
		}
	}
	for _, ba := range f.Order {
		for _, irb := range f.Blocks[ba].IR {
			for _, s := range irb.Stmts {
				switch s := s.(type) {
				case *ir.WrTmp:
					scanExpr(s.E)
				case *ir.Put:
					scanExpr(s.E)
					if s.R < 4 {
						written[s.R] = true
					}
				case *ir.Store:
					scanExpr(s.Addr)
					scanExpr(s.Val)
				case *ir.Exit:
					scanExpr(s.Cond)
				case *ir.Call:
					// Calls clobber r0..r3; stop attributing later reads.
					for r := isa.Reg(0); r < 4; r++ {
						written[r] = true
					}
				}
			}
		}
	}
	// Parameters are passed in order, so the count is the highest used
	// argument register plus one.
	n := 0
	for r := isa.Reg(0); r < 4; r++ {
		if used[r] {
			n = int(r) + 1
		}
	}
	return n
}
