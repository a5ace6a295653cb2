package emu

import (
	"bytes"
	"reflect"
	"testing"

	"fits/internal/binimg"
	"fits/internal/isa"
)

// Scratch addresses inside the emulated stack region.
const (
	strA     = StackTop - 0x20000
	strB     = StackTop - 0x10000
	heapBase = StackTop - 0x30000
)

// libcMachine returns a machine whose binary imports names, with the libc
// installed on a 64-byte heap; sink records land in *got.
func libcMachine(t testing.TB, got *[]string, names ...string) *Machine {
	t.Helper()
	bin := makeBin([]isa.Instr{{Op: isa.OpRet}})
	for i, n := range names {
		bin.Imports = append(bin.Imports, binimg.Import{Name: n, GOT: uint32(0x3000 + 4*i)})
	}
	m := New(bin)
	m.InstallLibc(heapBase, heapBase+64, func(sink, arg string) {
		*got = append(*got, sink+":"+arg)
	})
	return m
}

// call runs one import with the given argument registers and returns r0.
func call(t testing.TB, m *Machine, name string, args ...uint32) uint32 {
	t.Helper()
	copy(m.Regs[:], args)
	if err := m.Imports[name](m); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return m.Regs[0]
}

func store(t testing.TB, m *Machine, addr uint32, s string) {
	t.Helper()
	if err := m.StoreBytes(addr, append([]byte(s), 0)); err != nil {
		t.Fatal(err)
	}
}

func TestLibcStrncmp(t *testing.T) {
	var rec []string
	m := libcMachine(t, &rec, "strncmp", "strcmp")
	for _, c := range []struct {
		a, b string
		n    uint32
		want int32
	}{
		{"abc", "abd", 3, 'c' - 'd'},
		{"abd", "abc", 3, 'd' - 'c'},
		{"abc", "abd", 2, 0},
		{"ab\x00X", "ab\x00Y", 4, 0}, // stops at the NUL
		{"ab", "abc", 3, -'c'},
		{"\xff", "a", 1, 0xff - 'a'}, // bytes compare unsigned
		{"x", "y", 0, 0},
	} {
		if err := m.StoreBytes(strA, []byte(c.a+"\x00")); err != nil {
			t.Fatal(err)
		}
		if err := m.StoreBytes(strB, []byte(c.b+"\x00")); err != nil {
			t.Fatal(err)
		}
		if got := int32(call(t, m, "strncmp", strA, strB, c.n)); got != c.want {
			t.Errorf("strncmp(%q, %q, %d) = %d, want %d", c.a, c.b, c.n, got, c.want)
		}
	}
	store(t, m, strA, "abc")
	store(t, m, strB, "abcd")
	if got := int32(call(t, m, "strcmp", strA, strB)); got != -'d' {
		t.Errorf("strcmp(abc, abcd) = %d, want %d", got, -'d')
	}
}

func TestLibcMalloc(t *testing.T) {
	var rec []string
	m := libcMachine(t, &rec, "malloc", "free")
	for _, c := range []struct {
		n, want uint32
	}{
		{16, heapBase},
		{33, heapBase + 16}, // rounded up to 40 bytes
		{8, heapBase + 56},  // ends at the limit
		{1, 0},              // past the limit
		{0xffffffff, 0},
	} {
		if got := call(t, m, "malloc", c.n); got != c.want {
			t.Errorf("malloc(%d) = %#x, want %#x", c.n, got, c.want)
		}
	}
	if got := call(t, m, "free", heapBase); got != 0 {
		t.Errorf("free = %d", got)
	}
}

func TestLibcSinksRecordDangerousParams(t *testing.T) {
	var rec []string
	m := libcMachine(t, &rec, "sprintf", "system", "strcpy", "recv")
	store(t, m, strA, "%s")
	store(t, m, strB, "payload")
	// sprintf's dangerous params are 1..3; the unmapped r3 goes unrecorded.
	if got := call(t, m, "sprintf", StackTop-0x100, strA, strB, 0x900000); got != 0 {
		t.Errorf("sprintf returned %d", got)
	}
	call(t, m, "system", strB)
	dst := uint32(StackTop - 0x200)
	if got := call(t, m, "strcpy", dst, strB); got != dst {
		t.Errorf("strcpy returned %#x, want dst %#x", got, dst)
	}
	want := []string{"sprintf:%s", "sprintf:payload", "system:payload", "strcpy:payload"}
	if !reflect.DeepEqual(rec, want) {
		t.Errorf("recorded %q, want %q", rec, want)
	}
	if s, err := m.ReadCString(dst, 64); err != nil || s != "payload" {
		t.Errorf("strcpy copied %q (%v)", s, err)
	}
	if got := call(t, m, "recv", 1, 2, 3); got != 0 {
		t.Errorf("unknown import returned %d, want 0", got)
	}
}

// FuzzLibc checks the emulated string routines against Go's bytes
// semantics on C strings: each input is stored as is plus a NUL, so bytes
// past an interior NUL sit in memory but must not count.
func FuzzLibc(f *testing.F) {
	f.Add([]byte("username"), []byte("user"), uint16(4))
	f.Add([]byte("ab\x00cd"), []byte("ab\x00ce"), uint16(5))
	f.Add([]byte("\xffz"), []byte("a"), uint16(2))
	f.Add([]byte(""), []byte(""), uint16(0))
	f.Fuzz(func(t *testing.T, a, b []byte, n uint16) {
		if len(a) > 0x4000 || len(b) > 0x4000 {
			return
		}
		var rec []string
		m := libcMachine(t, &rec, "strlen", "strcmp", "strncmp", "strstr")
		if err := m.StoreBytes(strA, append(bytes.Clone(a), 0)); err != nil {
			t.Fatal(err)
		}
		if err := m.StoreBytes(strB, append(bytes.Clone(b), 0)); err != nil {
			t.Fatal(err)
		}
		ca, cb := cstr(a), cstr(b)
		if got := call(t, m, "strlen", strA); got != uint32(len(ca)) {
			t.Errorf("strlen = %d, want %d", got, len(ca))
		}
		if got, want := sign(int32(call(t, m, "strcmp", strA, strB))), bytes.Compare(ca, cb); got != want {
			t.Errorf("strcmp sign = %d, want %d", got, want)
		}
		na, nb := ca[:min(len(ca), int(n))], cb[:min(len(cb), int(n))]
		if got, want := sign(int32(call(t, m, "strncmp", strA, strB, uint32(n)))), bytes.Compare(na, nb); got != want {
			t.Errorf("strncmp(n=%d) sign = %d, want %d", n, got, want)
		}
		want := uint32(0)
		if i := bytes.Index(ca, cb); i >= 0 {
			want = strA + uint32(i)
		}
		if got := call(t, m, "strstr", strA, strB); got != want {
			t.Errorf("strstr = %#x, want %#x", got, want)
		}
	})
}

// cstr cuts s at its first NUL.
func cstr(s []byte) []byte {
	if i := bytes.IndexByte(s, 0); i >= 0 {
		return s[:i]
	}
	return s
}

func sign(v int32) int {
	switch {
	case v < 0:
		return -1
	case v > 0:
		return 1
	}
	return 0
}
