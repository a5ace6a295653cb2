package synth

import (
	"strings"
	"testing"

	"fits/internal/binimg"
	"fits/internal/emu"
)

// dynamicHarness wires a generated network binary into the emulator with
// native libc implementations, so planted flows can be driven for real.
type dynamicHarness struct {
	m *emu.Machine
	// sinkArgs records every string that reached a sink's dangerous
	// parameter, keyed by sink name.
	sinkArgs map[string][]string
	heap     uint32
}

const harnessHeap = emu.StackTop - 1<<20 + 0x2000

func newHarness(t *testing.T, bin *binimg.Binary) *dynamicHarness {
	t.Helper()
	h := &dynamicHarness{m: emu.New(bin), sinkArgs: map[string][]string{}, heap: harnessHeap}
	h.m.MaxSteps = 2_000_000
	cstr := func(a uint32) string {
		s, err := h.m.ReadCString(a, 256)
		if err != nil {
			return ""
		}
		return s
	}
	record := func(sink string, arg uint32) {
		h.sinkArgs[sink] = append(h.sinkArgs[sink], cstr(arg))
	}
	handlers := map[string]emu.ImportFunc{
		"strlen": func(m *emu.Machine) error {
			m.Regs[0] = uint32(len(cstr(m.Regs[0])))
			return nil
		},
		"strncmp": func(m *emu.Machine) error {
			n := m.Regs[2]
			eq := uint32(0)
			for i := uint32(0); i < n; i++ {
				a, err := m.LoadByte(m.Regs[0] + i)
				if err != nil {
					return err
				}
				b, err := m.LoadByte(m.Regs[1] + i)
				if err != nil {
					return err
				}
				if a != b {
					eq = 1
					break
				}
				if a == 0 {
					break
				}
			}
			m.Regs[0] = eq
			return nil
		},
		"memcpy": func(m *emu.Machine) error {
			for i := uint32(0); i < m.Regs[2]; i++ {
				b, err := m.LoadByte(m.Regs[1] + i)
				if err != nil {
					return err
				}
				if err := m.StoreByte(m.Regs[0]+i, b); err != nil {
					return err
				}
			}
			return nil
		},
		"malloc": func(m *emu.Machine) error {
			n := (m.Regs[0] + 7) &^ 7
			m.Regs[0] = h.heap
			h.heap += n
			return nil
		},
		"strcpy": func(m *emu.Machine) error {
			record("strcpy", m.Regs[1])
			s := cstr(m.Regs[1])
			return m.StoreBytes(m.Regs[0], append([]byte(s), 0))
		},
		"strncpy": func(m *emu.Machine) error {
			record("strncpy", m.Regs[1])
			return nil
		},
		"strcat": func(m *emu.Machine) error {
			record("strcat", m.Regs[1])
			return nil
		},
		"sprintf": func(m *emu.Machine) error {
			record("sprintf", m.Regs[2]) // the %s argument
			return nil
		},
		"system": func(m *emu.Machine) error {
			record("system", m.Regs[0])
			return nil
		},
		"popen": func(m *emu.Machine) error {
			record("popen", m.Regs[0])
			return nil
		},
		"execve": func(m *emu.Machine) error {
			record("execve", m.Regs[0])
			return nil
		},
	}
	fallback := func(m *emu.Machine) error { m.Regs[0] = 0; return nil }
	for _, im := range bin.Imports {
		if fn, ok := handlers[im.Name]; ok {
			h.m.Imports[im.Name] = fn
		} else {
			h.m.Imports[im.Name] = fallback
		}
	}
	return h
}

// TestPlantedBugsTriggerDynamically drives a generated firmware's real code:
// inject a request through parse_req, call a vulnerable handler, and observe
// the injected payload arriving at the sink's dangerous parameter. This
// proves the corpus's "bugs" are genuine dynamic flows, not static patterns.
func TestPlantedBugsTriggerDynamically(t *testing.T) {
	spec := Dataset()[0] // NETGEAR: global request buffer
	sample, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}

	bin, err := appBinary(sample)
	if err != nil {
		t.Fatal(err)
	}

	// Pick a shallow vulnerable handler of the primary binary.
	var target HandlerTruth
	for _, h := range sample.Manifest.Handlers {
		if h.Category == VulnShallow && h.Binary == bin.Name {
			target = h
			break
		}
	}
	if target.FuncName == "" {
		t.Skip("sample has no shallow bug")
	}

	h := newHarness(t, bin)

	// Plant the parsed request record at the key-value store, which the
	// generator lays out as the first bss object, then drive the handler:
	// its own code fetches the field and forwards it to the sink.
	payload := "PWNED_BY_TEST"
	record := target.Key + "\x00" + payload + "\x00"
	if err := h.m.StoreBytes(bin.BssAddr, append([]byte(record), 0)); err != nil {
		t.Fatal(err)
	}

	if _, err := h.m.CallFunction(target.Entry); err != nil {
		t.Fatalf("handler execution: %v", err)
	}
	got := strings.Join(h.sinkArgs[target.Sink], " | ")
	if !strings.Contains(got, payload) {
		t.Fatalf("payload did not reach sink %s; observed %q", target.Sink, got)
	}
}

// TestSanitizedHandlerBlocksLongPayload checks the other side: a sanitized
// handler forwards short values but refuses over-long ones.
func TestSanitizedHandlerBlocksLongPayload(t *testing.T) {
	spec := Dataset()[0]
	sample, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	bin, err := appBinary(sample)
	if err != nil {
		t.Fatal(err)
	}
	var target HandlerTruth
	for _, hh := range sample.Manifest.Handlers {
		if hh.Category == SafeSanitized && hh.Binary == bin.Name {
			target = hh
			break
		}
	}
	if target.FuncName == "" {
		t.Skip("sample has no sanitized handler")
	}

	run := func(payload string) []string {
		h := newHarness(t, bin)
		record := target.Key + "\x00" + payload + "\x00"
		if err := h.m.StoreBytes(bin.BssAddr, append([]byte(record), 0)); err != nil {
			t.Fatal(err)
		}
		if _, err := h.m.CallFunction(target.Entry); err != nil {
			t.Fatalf("handler execution: %v", err)
		}
		return h.sinkArgs[target.Sink]
	}

	short := run("ok")
	if len(short) == 0 || !strings.Contains(strings.Join(short, ""), "ok") {
		t.Errorf("short value blocked by sanitizer: %q", short)
	}
	long := run(strings.Repeat("A", 64))
	for _, s := range long {
		if strings.Contains(s, "AAAA") {
			t.Errorf("over-long value passed the sanitizer: %q", s)
		}
	}
}

// TestEmulatedITSExtraction drives the planted fetch function directly on
// all architectures, confirming cross-architecture behavioural equivalence
// of the generated code.
func TestEmulatedITSExtraction(t *testing.T) {
	for _, idx := range []int{0, 17, 26} { // arm, mips, aarch-ish mix
		sample, err := Generate(Dataset()[idx])
		if err != nil {
			t.Fatal(err)
		}
		if len(sample.Manifest.ITS) == 0 {
			continue
		}
		bin, err := appBinary(sample)
		if err != nil {
			t.Fatal(err)
		}
		h := newHarness(t, bin)
		key := "probe_key"
		val := "extracted_value"
		keyAddr := uint32(harnessHeap + 0x4000)
		storeAddr := uint32(harnessHeap + 0x4100)
		if err := h.m.StoreBytes(keyAddr, append([]byte(key), 0)); err != nil {
			t.Fatal(err)
		}
		rec := key + "\x00" + val + "\x00"
		if err := h.m.StoreBytes(storeAddr, append([]byte(rec), 0)); err != nil {
			t.Fatal(err)
		}
		ret, err := h.m.CallFunction(sample.Manifest.ITS[0].Entry, keyAddr, storeAddr, uint32(len(rec)))
		if err != nil {
			t.Fatalf("%s: %v", sample.Manifest.Arch, err)
		}
		if ret == 0 {
			t.Fatalf("%s: fetch returned nil", sample.Manifest.Arch)
		}
		got, err := h.m.ReadCString(ret, 64)
		if err != nil || got != val {
			t.Errorf("%s: fetched %q, want %q (err %v)", sample.Manifest.Arch, got, val, err)
		}
	}
}
