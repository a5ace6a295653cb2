package know

import "testing"

func TestAnchorsWellFormed(t *testing.T) {
	if len(Anchors) < 10 {
		t.Errorf("anchors = %d, want a substantial set", len(Anchors))
	}
	for name, arity := range Anchors {
		if name == "" || arity < 1 || arity > 4 {
			t.Errorf("anchor %q arity %d malformed", name, arity)
		}
	}
	// The paper's Figure 2 examples must be present.
	for _, name := range []string{"strcpy", "memcmp", "strstr"} {
		if Anchors[name] == 0 {
			t.Errorf("missing paper anchor %q", name)
		}
	}
	if Anchors["printf"] != 0 || Anchors["recv"] != 0 {
		t.Error("non-memory functions classified as anchors")
	}
}

func TestSourcesWellFormed(t *testing.T) {
	for name, spec := range Sources {
		if !spec.TaintsReturn && len(spec.TaintedParams) == 0 {
			t.Errorf("source %q produces no tainted output", name)
		}
		for _, p := range spec.TaintedParams {
			if p < 0 || p >= spec.Arity {
				t.Errorf("source %q tainted param %d outside arity %d", name, p, spec.Arity)
			}
		}
	}
	// The paper's classical sources.
	for _, name := range []string{"recv", "getenv", "fgets", "BIO_read"} {
		if _, ok := Sources[name]; !ok {
			t.Errorf("missing paper source %q", name)
		}
	}
	if !Sources["getenv"].TaintsReturn {
		t.Error("getenv must taint its return value")
	}
	if Sources["recv"].TaintedParams[0] != 1 {
		t.Error("recv must taint its buffer parameter")
	}
}

func TestSinksWellFormed(t *testing.T) {
	overflow, command := 0, 0
	for name, spec := range Sinks {
		if !IsSink(name) {
			t.Errorf("IsSink(%q) false", name)
		}
		if len(spec.DangerousParams) == 0 {
			t.Errorf("sink %q has no dangerous params", name)
		}
		switch spec.Kind {
		case SinkOverflow:
			overflow++
		case SinkCommand:
			command++
		}
	}
	if overflow == 0 || command == 0 {
		t.Errorf("sink kinds: overflow=%d command=%d, want both", overflow, command)
	}
	// The paper's §4.3 sink examples.
	for _, name := range []string{"strncpy", "sprintf", "strncat", "system", "execve"} {
		if !IsSink(name) {
			t.Errorf("missing paper sink %q", name)
		}
	}
	if Sinks["system"].Kind != SinkCommand || Sinks["sprintf"].Kind != SinkOverflow {
		t.Error("sink kinds misassigned")
	}
}

func TestSinkKindString(t *testing.T) {
	if SinkOverflow.String() != "buffer-overflow" || SinkCommand.String() != "command-hijack" {
		t.Error("sink kind strings wrong")
	}
}

func TestNetworkImports(t *testing.T) {
	for _, name := range []string{"socket", "recv", "accept", "BIO_read"} {
		if !NetworkImports[name] {
			t.Errorf("missing network import %q", name)
		}
	}
	if NetworkImports["printf"] {
		t.Error("printf is not a network interface")
	}
}

func TestCategoryDisjointness(t *testing.T) {
	// Sources and sinks must not overlap: a function cannot both produce
	// user input and be a dangerous consumer in our model.
	for name := range Sources {
		if IsSink(name) {
			t.Errorf("%q is both source and sink", name)
		}
	}
	// Anchors may overlap with sinks (strncpy is both a memory-operation
	// reference and a risky copy), but never with sources.
	for name := range Anchors {
		if _, ok := Sources[name]; ok {
			t.Errorf("%q is both anchor and source", name)
		}
	}
}
