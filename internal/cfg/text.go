package cfg

import (
	"fits/internal/binimg"
	"fits/internal/isa"
)

// textIndex is a binary's text section decoded once per Build: one
// instruction per text word and a bitset of the words that decode, plus
// scratch that buildFunction and the prologue scan reuse across functions.
// Build is single-threaded per binary, so one index serves every function;
// buildFunction leaves the scratch clear on every return.
type textIndex struct {
	text binimg.Section
	ins  []isa.Instr // ins[i] is the word at text.Addr + i*isa.Width
	ok   bitset      // words that decode; ins holds the zero Instr elsewhere

	// Per-function scratch: reached and leader words, the reached addresses
	// in discovery order, the words whose leader bit is set, and the
	// descent's work stack.
	reach, leader bitset
	addrs         []uint32
	leaders       []int
	work          []uint32

	// covered marks words inside a recovered block during a prologue scan.
	covered bitset
}

func newTextIndex(bin *binimg.Binary) *textIndex {
	n := len(bin.Text.Data) / isa.Width
	x := &textIndex{
		text:   bin.Text,
		ins:    make([]isa.Instr, n),
		ok:     newBitset(n),
		reach:  newBitset(n),
		leader: newBitset(n),
	}
	for i := range x.ins {
		if in, err := bin.Arch.Decode(bin.Text.Data[i*isa.Width:]); err == nil {
			x.ins[i] = in
			x.ok.set(i)
		}
	}
	return x
}

// word returns the index of the text word at addr. ok is false when addr is
// outside the text section, misaligned, or in a trailing partial word.
func (x *textIndex) word(addr uint32) (i int, ok bool) {
	if !x.text.Contains(addr) {
		return 0, false
	}
	off := addr - x.text.Addr
	if off%isa.Width != 0 || int(off/isa.Width) >= len(x.ins) {
		return 0, false
	}
	return int(off / isa.Width), true
}

// at reports whether the word at addr is in set b; addresses outside the
// text section, misaligned or in a trailing partial word are in no set.
// at(x.ok, addr) holds exactly when bin.InstrAt(addr) succeeds.
func (x *textIndex) at(b bitset, addr uint32) bool {
	i, ok := x.word(addr)
	return ok && b.has(i)
}

// markLeader sets addr's leader bit. Addresses outside the text section are
// skipped: the descent walks every leader it marks, and fails there.
func (x *textIndex) markLeader(addr uint32) {
	if i, ok := x.word(addr); ok && !x.leader.has(i) {
		x.leader.set(i)
		x.leaders = append(x.leaders, i)
	}
}

// reset clears the per-function scratch from its touched lists.
func (x *textIndex) reset() {
	for _, a := range x.addrs {
		i, _ := x.word(a)
		x.reach.unset(i)
	}
	for _, i := range x.leaders {
		x.leader.unset(i)
	}
	x.addrs, x.leaders, x.work = x.addrs[:0], x.leaders[:0], x.work[:0]
}

// bitset is a fixed-size set of small non-negative integers.
type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

func (b bitset) has(i int) bool { return b[i>>6]&(1<<(uint(i)&63)) != 0 }
func (b bitset) set(i int)      { b[i>>6] |= 1 << (uint(i) & 63) }
func (b bitset) unset(i int)    { b[i>>6] &^= 1 << (uint(i) & 63) }
