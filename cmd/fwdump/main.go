// Command fwdump inspects binaries inside a firmware image the way objdump
// inspects ELF files: sections, dynamic symbols, recovered functions, and
// per-block disassembly with call and jump-table annotations. With -ir it
// prints the lifted VEX-like IR instead of assembly.
//
// Usage:
//
//	fwdump firmware.fw                       # summary of every binary
//	fwdump -bin bin/httpd firmware.fw        # full disassembly of one binary
//	fwdump -bin bin/httpd -fn 0x10640 -ir firmware.fw
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"

	"fits/internal/binimg"
	"fits/internal/cfg"
	"fits/internal/firmware"
	"fits/internal/isa"
	"fits/internal/ucse"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("fwdump: ")
	binPath := flag.String("bin", "", "disassemble this binary (firmware path)")
	fnAddr := flag.String("fn", "", "limit output to the function at this entry (hex)")
	showIR := flag.Bool("ir", false, "print lifted IR instead of assembly")
	flag.Parse()
	if flag.NArg() != 1 {
		log.Fatal("usage: fwdump [-bin PATH [-fn ADDR] [-ir]] firmware.fw")
	}
	raw, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		log.Fatal(err)
	}
	img, err := firmware.Unpack(raw)
	if err != nil {
		log.Fatal(err)
	}

	if *binPath == "" {
		summarize(img)
		return
	}
	f, ok := img.Lookup(*binPath)
	if !ok {
		log.Fatalf("no file %q in image", *binPath)
	}
	bin, err := binimg.Decode(f.Data)
	if err != nil {
		log.Fatal(err)
	}
	model, err := cfg.Build(bin, cfg.Options{
		Resolver:     ucse.Resolver(),
		JumpResolver: ucse.JumpResolver(),
	})
	if err != nil {
		log.Fatal(err)
	}

	var only uint32
	if *fnAddr != "" {
		v, err := strconv.ParseUint(strings.TrimPrefix(*fnAddr, "0x"), 16, 32)
		if err != nil {
			log.Fatalf("bad -fn address: %v", err)
		}
		only = uint32(v)
	}
	dump(bin, model, only, *showIR)
}

func summarize(img *firmware.Image) {
	fmt.Printf("%s %s %s\n\n", img.Vendor, img.Product, img.Version)
	for _, f := range img.Files {
		if !binimg.IsBinary(f.Data) {
			fmt.Printf("%-28s %8d bytes\n", f.Path, len(f.Data))
			continue
		}
		b, err := binimg.Decode(f.Data)
		if err != nil {
			fmt.Printf("%-28s %8d bytes (corrupt binary: %v)\n", f.Path, len(f.Data), err)
			continue
		}
		stripped := ""
		if b.Stripped {
			stripped = ", stripped"
		}
		fmt.Printf("%-28s %8d bytes  %s binary%s\n", f.Path, len(f.Data), b.Arch, stripped)
		fmt.Printf("%30s text %#x+%d rodata %#x+%d data %#x+%d bss %#x+%d\n", "",
			b.Text.Addr, len(b.Text.Data), b.Rodata.Addr, len(b.Rodata.Data),
			b.Data.Addr, len(b.Data.Data), b.BssAddr, b.BssSize)
		if len(b.Needed) > 0 {
			fmt.Printf("%30s needs %s; %d imports, %d exports\n", "",
				strings.Join(b.Needed, " "), len(b.Imports), len(b.Exports))
		}
	}
}

func dump(bin *binimg.Binary, m *cfg.Model, only uint32, showIR bool) {
	for _, fn := range m.FuncsInOrder() {
		if only != 0 && fn.Entry != only {
			continue
		}
		kind := ""
		if fn.ImportStub {
			kind = " (import stub)"
		}
		fmt.Printf("\n%08x <%s>%s  blocks=%d loops=%d params=%d\n",
			fn.Entry, fn.Name, kind, fn.NumBlocks(), len(fn.Loops), fn.Params)
		for _, blk := range fn.BlocksInOrder() {
			fmt.Printf("  block %08x -> %s\n", blk.Start, succsString(blk))
			for i, in := range blk.Instrs {
				addr := blk.Start + uint32(i*isa.Width)
				note := annotate(bin, m, fn, addr, in)
				if showIR {
					for _, s := range fn.InstrIR(blk, i) {
						fmt.Printf("    %08x   %s%s\n", addr, s, note)
						note = "" // annotate only the first line
					}
				} else {
					fmt.Printf("    %08x   %-34s%s\n", addr, in.String(), note)
				}
			}
		}
	}
}

func succsString(blk *cfg.BasicBlock) string {
	if len(blk.Succs) == 0 {
		return "(terminal)"
	}
	parts := make([]string, len(blk.Succs))
	for i, s := range blk.Succs {
		parts[i] = fmt.Sprintf("%08x", s)
	}
	return strings.Join(parts, " ")
}

// annotate explains call targets, strings and jump tables on the margin.
func annotate(bin *binimg.Binary, m *cfg.Model, fn *cfg.Function, addr uint32, in isa.Instr) string {
	switch in.Op {
	case isa.OpCall:
		if callee, ok := m.FuncAt(uint32(in.Imm)); ok {
			return "  ; call " + callee.Name
		}
	case isa.OpCallr:
		var names []string
		for _, cs := range fn.Calls {
			if cs.Addr == addr && cs.Target != 0 {
				if callee, ok := m.FuncAt(cs.Target); ok {
					names = append(names, callee.Name)
				}
			}
		}
		if len(names) > 0 {
			return "  ; resolves to " + strings.Join(names, ", ")
		}
		return "  ; unresolved indirect call"
	case isa.OpJr:
		if ts := fn.JumpTables[addr]; len(ts) > 0 {
			return fmt.Sprintf("  ; jump table, %d cases", len(ts))
		}
		return "  ; unresolved computed jump"
	case isa.OpMovi:
		if s, ok := bin.CString(uint32(in.Imm)); ok && bin.SectionOf(uint32(in.Imm)) == "rodata" && printable(s) {
			return fmt.Sprintf("  ; %q", s)
		}
	}
	return ""
}

func printable(s string) bool {
	if len(s) == 0 || len(s) > 40 {
		return false
	}
	for i := 0; i < len(s); i++ {
		if s[i] < 0x20 || s[i] > 0x7e {
			return false
		}
	}
	return true
}
