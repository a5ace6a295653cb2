// Package binimg defines the on-disk container format for executables and
// shared libraries in the synthetic firmware corpus.
//
// The container mirrors the parts of ELF that firmware analysis depends on:
// loadable sections (.text/.rodata/.data/.bss), a dynamic section naming
// needed libraries, dynamic symbols (exports and PLT-style import stubs with
// GOT slots), and an optional debug symbol table that vendors strip from
// production firmware.
package binimg

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"fits/internal/isa"
)

// Magic identifies a binary container in a byte stream.
var Magic = []byte("FBIN1")

// Section is a loadable region with contents.
type Section struct {
	Addr uint32
	Data []byte
}

// Contains reports whether addr falls inside the section.
func (s Section) Contains(addr uint32) bool {
	return addr >= s.Addr && addr < s.Addr+uint32(len(s.Data))
}

// End returns the first address past the section.
func (s Section) End() uint32 { return s.Addr + uint32(len(s.Data)) }

// Sym names an address, either a dynamic export or a debug symbol.
type Sym struct {
	Name string
	Addr uint32
}

// Import is a PLT-style stub for a function provided by a needed library.
// Calls to Stub reach a trampoline that jumps through the GOT slot.
type Import struct {
	Name string
	Stub uint32
	GOT  uint32
}

// Binary is a parsed executable or shared library.
type Binary struct {
	Name     string // file name within the firmware filesystem
	Arch     isa.Arch
	Entry    uint32
	Stripped bool

	Text    Section
	Rodata  Section
	Data    Section
	BssAddr uint32
	BssSize uint32

	Needed  []string // dependency libraries, like DT_NEEDED
	Exports []Sym    // dynamic symbols (function exports)
	Imports []Import

	// Funcs is the debug symbol table: every function with its name.
	// Strip removes it; production firmware ships without it.
	Funcs []Sym
}

// Strip removes debug information, leaving only what dynamic linking needs.
func (b *Binary) Strip() {
	b.Funcs = nil
	b.Stripped = true
}

// SectionOf returns the name of the section containing addr: "text",
// "rodata", "data", "bss" or "" when unmapped.
func (b *Binary) SectionOf(addr uint32) string {
	switch {
	case b.Text.Contains(addr):
		return "text"
	case b.Rodata.Contains(addr):
		return "rodata"
	case b.Data.Contains(addr):
		return "data"
	case addr >= b.BssAddr && addr < b.BssAddr+b.BssSize:
		return "bss"
	}
	return ""
}

// WordAt reads a little-endian machine word from a data-carrying section.
func (b *Binary) WordAt(addr uint32) (uint32, bool) {
	for _, s := range []Section{b.Text, b.Rodata, b.Data} {
		if s.Contains(addr) && s.Contains(addr+isa.WordSize-1) {
			off := addr - s.Addr
			return binary.LittleEndian.Uint32(s.Data[off : off+isa.WordSize]), true
		}
	}
	return 0, false
}

// ByteAt reads one byte from any data-carrying section.
func (b *Binary) ByteAt(addr uint32) (byte, bool) {
	for _, s := range []Section{b.Text, b.Rodata, b.Data} {
		if s.Contains(addr) {
			return s.Data[addr-s.Addr], true
		}
	}
	return 0, false
}

// CString reads a NUL-terminated string at addr from rodata or data.
func (b *Binary) CString(addr uint32) (string, bool) {
	v, ok := b.CStringBytes(addr)
	if !ok {
		return "", false
	}
	return string(v), true
}

// CStringBytes is CString without the copy: the returned bytes are a view
// over the section data (valid as long as the binary is, and not to be
// modified). Callers that intern or only inspect the string avoid
// materializing it.
func (b *Binary) CStringBytes(addr uint32) ([]byte, bool) {
	for _, s := range []Section{b.Rodata, b.Data} {
		if !s.Contains(addr) {
			continue
		}
		off := int(addr - s.Addr)
		end := bytes.IndexByte(s.Data[off:], 0)
		if end < 0 {
			return s.Data[off:len(s.Data):len(s.Data)], true
		}
		return s.Data[off : off+end : off+end], true
	}
	return nil, false
}

// ImportAtStub resolves a text address to the import whose trampoline lives
// there, the way a disassembler recognizes PLT entries.
func (b *Binary) ImportAtStub(addr uint32) (Import, bool) {
	for _, im := range b.Imports {
		if im.Stub == addr {
			return im, true
		}
	}
	return Import{}, false
}

// ImportForGOT resolves a GOT slot address to its import.
func (b *Binary) ImportForGOT(got uint32) (Import, bool) {
	for _, im := range b.Imports {
		if im.GOT == got {
			return im, true
		}
	}
	return Import{}, false
}

// ExportAt returns the export name at addr, if any.
func (b *Binary) ExportAt(addr uint32) (string, bool) {
	for _, e := range b.Exports {
		if e.Addr == addr {
			return e.Name, true
		}
	}
	return "", false
}

// FuncName returns the debug name of the function at addr (unstripped
// binaries only).
func (b *Binary) FuncName(addr uint32) (string, bool) {
	for _, f := range b.Funcs {
		if f.Addr == addr {
			return f.Name, true
		}
	}
	return "", false
}

// Size returns the total mapped size in bytes.
func (b *Binary) Size() int {
	return len(b.Text.Data) + len(b.Rodata.Data) + len(b.Data.Data) + int(b.BssSize)
}

// InstrAt decodes the single instruction at addr in the text section.
func (b *Binary) InstrAt(addr uint32) (isa.Instr, error) {
	if !b.Text.Contains(addr) {
		return isa.Instr{}, fmt.Errorf("binimg: 0x%x outside text", addr)
	}
	off := addr - b.Text.Addr
	if off%isa.Width != 0 {
		return isa.Instr{}, fmt.Errorf("binimg: misaligned address 0x%x", addr)
	}
	return b.Arch.Decode(b.Text.Data[off:])
}
