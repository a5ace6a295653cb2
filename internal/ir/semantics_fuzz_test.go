package ir_test

// FuzzLiftSemantics checks what the lifted IR means against the emulator:
// a random straight-line sequence, in each of the three encodings, runs
// under emu from a concrete register file and a small concrete memory, and
// its lifted IR runs under ucse's path state from the same inputs. Every
// register, every byte of the memory window and the next PC must agree.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"testing"

	"fits/internal/binimg"
	"fits/internal/emu"
	"fits/internal/ir"
	"fits/internal/isa"
	"fits/internal/ucse"
)

const (
	memWindow = 64 // bytes of concrete memory: the binary's data section
	maxBody   = 12 // straight-line instructions before the final branch
	instrLen  = 8  // fuzz bytes per generated instruction
	// retSent is the return address emu.CallFunction puts in LR.
	retSent = 0xdeadbeec
)

// Body and final-branch opcodes: everything but call, callr, sys and tramp,
// whose effects leave the sequence.
var (
	bodyOps = []isa.Op{
		isa.OpNop, isa.OpMovi, isa.OpMov, isa.OpAdd, isa.OpSub, isa.OpMul,
		isa.OpDiv, isa.OpAnd, isa.OpOr, isa.OpXor, isa.OpShl, isa.OpShr,
		isa.OpAddi, isa.OpLdb, isa.OpLdw, isa.OpStb, isa.OpStw, isa.OpPush,
		isa.OpPop,
	}
	branchOps = []isa.Op{
		isa.OpBeq, isa.OpBne, isa.OpBlt, isa.OpBge, isa.OpJmp, isa.OpJr, isa.OpRet,
	}
)

// machine is one fuzz case's fixed part: the architecture, the initial
// register file and the initial memory window.
type machine struct {
	arch isa.Arch
	regs [isa.NumRegs]uint32
	mem  [memWindow]byte
}

func dataAddr(arch isa.Arch) uint32 { return arch.Base() + 0x10000 }

// binary places ins at the architecture's text base and the memory window
// in the data section, with nothing else mapped.
func (m *machine) binary(ins []isa.Instr) *binimg.Binary {
	return &binimg.Binary{
		Name:  "seq",
		Arch:  m.arch,
		Entry: m.arch.Base(),
		Text:  binimg.Section{Addr: m.arch.Base(), Data: m.arch.EncodeAll(ins)},
		Data:  binimg.Section{Addr: dataAddr(m.arch), Data: m.mem[:]},
	}
}

// emulate runs ins under emu and returns the machine after them; ok is
// false when emu faults.
func (m *machine) emulate(ins []isa.Instr) (*emu.Machine, bool) {
	em := emu.New(m.binary(ins))
	em.Regs = m.regs
	em.MaxSteps = len(ins)
	_, err := em.CallFunction(m.arch.Base())
	if err != nil && !errors.Is(err, emu.ErrMaxSteps) {
		return nil, false
	}
	return em, true
}

// inWindow reports whether the size bytes at a lie in the memory window.
func (m *machine) inWindow(a uint32, size int) bool {
	lo := dataAddr(m.arch)
	return a >= lo && a-lo <= memWindow-uint32(size)
}

// generate decodes a straight-line sequence ending in one branch. Memory
// operations are aimed into the window: a load or store's immediate is
// chosen from the base register's concrete value (emulating the prefix),
// and a push or pop whose SP has left the window becomes a nop.
func (m *machine) generate(prog []byte) []isa.Instr {
	var ins []isa.Instr
	n := min(len(prog)/instrLen, maxBody+1)
	for i := 0; i < n; i++ {
		b := prog[i*instrLen : (i+1)*instrLen]
		in := isa.Instr{
			Rd: isa.Reg(b[1] % isa.NumRegs), Rs1: isa.Reg(b[2] % isa.NumRegs),
			Rs2: isa.Reg(b[3] % isa.NumRegs), Imm: int32(binary.LittleEndian.Uint32(b[4:])),
		}
		if i == n-1 {
			in.Op = branchOps[int(b[0])%len(branchOps)]
			ins = append(ins, in)
			break
		}
		in.Op = bodyOps[int(b[0])%len(bodyOps)]
		switch in.Op {
		case isa.OpLdb, isa.OpLdw, isa.OpStb, isa.OpStw, isa.OpPush, isa.OpPop:
			em, ok := m.emulate(ins)
			if !ok {
				return nil
			}
			size := isa.WordSize
			if in.Op == isa.OpLdb || in.Op == isa.OpStb {
				size = 1
			}
			sp := em.Regs[isa.SP]
			switch in.Op {
			case isa.OpPush:
				if !m.inWindow(sp-isa.WordSize, size) {
					in.Op = isa.OpNop
				}
			case isa.OpPop:
				if !m.inWindow(sp, size) {
					in.Op = isa.OpNop
				}
			default:
				at := dataAddr(m.arch) + uint32(in.Imm)%uint32(memWindow-size+1)
				in.Imm = int32(at - em.Regs[in.Rs1])
			}
		}
		ins = append(ins, in)
	}
	if len(ins) == 0 || !ins[len(ins)-1].EndsBlock() {
		ins = append(ins, isa.Instr{Op: isa.OpRet})
	}
	return ins
}

// lifted runs ins's lifted IR under ucse's path state from the machine's
// inputs and returns the state and the next PC.
func (m *machine) lifted(t *testing.T, bin *binimg.Binary, ins []isa.Instr) (*ucse.SymState, uint32) {
	st := ucse.NewPathState(bin)
	for r, v := range m.regs {
		st.Regs[r] = ucse.SConst{V: v}
	}
	st.Regs[isa.LR] = ucse.SConst{V: retSent}
	var l ir.Lifter
	l.Reserve(ins)
	for i, in := range ins {
		if err := l.Lift(bin.Text.Addr+uint32(i*isa.Width), in); err != nil {
			t.Fatal(err)
		}
	}
	code := l.Code()
	var next uint32
	for i := range ins {
		next = bin.Text.Addr + uint32((i+1)*isa.Width)
		stmts := code.Instr(i)
		for j := range stmts {
			switch s := &stmts[j]; s.Kind {
			case ir.Exit:
				if constant(t, st.Arg(s.A), "exit condition") != 0 {
					next = s.Target()
				}
			case ir.Jump:
				next = s.Target()
				if s.Dynamic() {
					next = constant(t, st.Arg(s.A), "jump target")
				}
			case ir.Ret:
				next = constant(t, st.Regs[isa.LR], "return address")
			default:
				if st.Step(s) {
					t.Fatalf("%s clobbered memory", s)
				}
			}
		}
	}
	return st, next
}

func constant(t *testing.T, v ucse.SVal, what string) uint32 {
	t.Helper()
	c, ok := v.(ucse.SConst)
	if !ok {
		t.Fatalf("%s is %s, not a constant", what, ucse.Render(v))
	}
	return c.V
}

// decodeMachine reads the architecture, the memory window and the register
// file; SP starts inside the window so push and pop have room.
func decodeMachine(arch uint8, init []byte) *machine {
	m := &machine{arch: isa.ArchARM + isa.Arch(arch%3)}
	init = append(init, make([]byte, memWindow+isa.NumRegs*4)...)
	copy(m.mem[:], init)
	for r := range m.regs {
		m.regs[r] = binary.LittleEndian.Uint32(init[memWindow+4*r:])
	}
	m.regs[isa.SP] = dataAddr(m.arch) + 4 + m.regs[isa.SP]%(memWindow-8)
	return m
}

// seedProg encodes ins as generate's input (immediates of memory operations
// become window offsets).
func seedProg(ins []isa.Instr) []byte {
	var out []byte
	for _, in := range ins {
		ops := bodyOps
		if in.EndsBlock() {
			ops = branchOps
		}
		k := 0
		for k < len(ops) && ops[k] != in.Op {
			k++
		}
		b := []byte{byte(k), byte(in.Rd), byte(in.Rs1), byte(in.Rs2), 0, 0, 0, 0}
		binary.LittleEndian.PutUint32(b[4:], uint32(in.Imm))
		out = append(out, b...)
	}
	return out
}

func FuzzLiftSemantics(f *testing.F) {
	init := make([]byte, memWindow+isa.NumRegs*4)
	for i := range init {
		init[i] = byte(i*37 + 11)
	}
	var body, branches []isa.Instr
	for _, in := range ir.EveryOpcode() {
		switch {
		case in.Op == isa.OpCall, in.Op == isa.OpCallr, in.Op == isa.OpSys, in.Op == isa.OpTramp:
		case in.EndsBlock():
			branches = append(branches, in)
		default:
			body = append(body, in)
		}
	}
	for i, br := range branches {
		lo := i * len(body) / len(branches)
		hi := (i + 1) * len(body) / len(branches)
		f.Add(uint8(i), init, seedProg(append(body[lo:hi:hi], br)))
	}
	f.Fuzz(func(t *testing.T, arch uint8, init, prog []byte) {
		m := decodeMachine(arch, init)
		ins := m.generate(prog)
		if ins == nil {
			return
		}
		em, ok := m.emulate(ins)
		if !ok {
			return // emu faults on this sequence; nothing to compare
		}
		bin := m.binary(ins)
		decoded := make([]isa.Instr, len(ins))
		for i := range ins {
			in, err := bin.InstrAt(bin.Text.Addr + uint32(i*isa.Width))
			if err != nil {
				t.Fatal(err)
			}
			decoded[i] = in
		}
		st, next := m.lifted(t, bin, decoded)
		var diffs []string
		for r := range em.Regs {
			if got := st.Regs[r]; got != (ucse.SConst{V: em.Regs[r]}) {
				diffs = append(diffs, fmt.Sprintf("%s: emu %#x, lifted %s", isa.Reg(r), em.Regs[r], ucse.Render(got)))
			}
		}
		for i := uint32(0); i < memWindow; i++ {
			a := bin.Data.Addr + i
			want, err := em.LoadByte(a)
			if err != nil {
				t.Fatal(err)
			}
			if got := st.Load(ucse.SConst{V: a}, 1); got != (ucse.SConst{V: uint32(want)}) {
				diffs = append(diffs, fmt.Sprintf("mem[%#x]: emu %#x, lifted %s", a, want, ucse.Render(got)))
			}
		}
		if next != em.PC {
			diffs = append(diffs, fmt.Sprintf("next pc: emu %#x, lifted %#x", em.PC, next))
		}
		if len(diffs) > 0 {
			var prog strings.Builder
			for _, in := range decoded {
				fmt.Fprintf(&prog, "\n\t%s", in)
			}
			t.Fatalf("%s sequence:%s\ndiverges:\n\t%s", m.arch, prog.String(), strings.Join(diffs, "\n\t"))
		}
	})
}
