// Package taint implements STA, the static taint analysis engine of the
// paper's §3.4: given taint sources (classical interface functions and/or
// inferred intermediate taint sources) and risky-library-function sinks, it
// computes the reachability of unsanitized user data from sources to sinks
// over the recovered CFG and call graph.
//
// Two precision regimes coexist, mirroring the engine's observed behaviour:
//
//   - Classical sources taint a *memory region*. A stripped binary has no
//     object boundaries, so once an interface function is seen writing into
//     writable memory, every sink consuming a writable-memory pointer is
//     reachable — cheap, but the source of STA's high false-positive rate
//     and of its blindness to values materialized on the heap.
//
//   - Intermediate sources taint the *value* returned at each call site,
//     which is tracked precisely through locals, parameters, wrapper calls
//     and stores, with a range-check sanitization rule and Karonte-style
//     string filtering.
package taint

import (
	"sort"

	"fits/internal/alias"
	"fits/internal/binimg"
	"fits/internal/cfg"
	"fits/internal/dataflow"
	"fits/internal/isa"
	"fits/internal/know"
	"fits/internal/stagetime"
)

// SourceKind says what seeded an alert.
type SourceKind uint8

// Source kinds.
const (
	FromCTSRegion SourceKind = iota
	FromCTSValue
	FromITS
	// FromChannel marks taint seeded at a cross-binary channel getter call
	// site (nvram_get-style) whose key another binary was seen writing
	// tainted data to; only the corpus fixpoint produces these.
	FromChannel
)

func (k SourceKind) String() string {
	switch k {
	case FromCTSRegion:
		return "cts-region"
	case FromCTSValue:
		return "cts-value"
	case FromChannel:
		return "xchan"
	default:
		return "its"
	}
}

// Alert is one potential vulnerability report.
type Alert struct {
	Binary string
	// Site is the sink call instruction address; Func the entry of the
	// function containing it.
	Site uint32
	Func uint32
	Sink string
	Kind know.SinkKind
	From SourceKind
	// Key is the field-index string of the originating ITS call site, when
	// recoverable; the string filter keys on it. For FromChannel alerts it
	// is the channel key whose getter seeded the flow.
	Key string
	// Via is the cross-binary channel endpoint the flow passes through,
	// rendered "<chan>:<key>" (e.g. "nvram:wl_key"). On a channel-write
	// alert (Kind SinkChannelWrite) it names the endpoint being written;
	// on a FromChannel sink alert it names the endpoint that seeded the
	// flow. Empty for purely intra-binary flows.
	Via string
	// Filtered alerts matched the system-data string filter and are not
	// reported.
	Filtered bool
	// Refuted is non-empty when the path-feasibility pass proved the sink
	// unreachable under its collected branch constraints; it renders the
	// contradicting constraint pair. Refuted alerts are excluded from Run
	// like filtered ones and retained in AllAlerts for diagnostics.
	Refuted string
	// Degraded marks alerts from functions where an analysis budget
	// tripped (the taint fixpoint's pass budget or the alias fact budget):
	// the engine fell back to coarser tracking around them, so their
	// precision is that of the pre-budget passes. The symbolic engine
	// (package karonte) marks alerts from functions still on a path its
	// step budget cut short, whose flows it may have missed.
	Degraded bool
}

// Reported reports whether the alert survives the string filter and the
// feasibility pass: the one rule that selects Run from RunAll.
func (a Alert) Reported() bool { return !a.Filtered && a.Refuted == "" }

// Finding is an alert as reported: the API, fitsd's results and version
// diffs all carry this type, and corpus reports embed it. Its kinds are
// rendered as strings; Key, Via, Filtered and Refuted stay engine-side.
type Finding struct {
	Binary   string `json:"binary"`
	Site     uint32 `json:"site"`
	Func     uint32 `json:"func"`
	Sink     string `json:"sink"`
	Kind     string `json:"kind"`   // know.SinkKind.String()
	Source   string `json:"source"` // SourceKind.String()
	Degraded bool   `json:"degraded,omitempty"`
}

// Finding returns the alert as reported.
func (a Alert) Finding() Finding {
	return Finding{
		Binary: a.Binary, Site: a.Site, Func: a.Func, Sink: a.Sink,
		Kind: a.Kind.String(), Source: a.From.String(), Degraded: a.Degraded,
	}
}

// Options configures an analysis run.
type Options struct {
	// UseCTS enables classical sources.
	UseCTS bool
	// ITS lists intermediate taint source function entries whose return
	// value carries the fetched data.
	ITS []uint32
	// ITSOut lists sources that write the fetched data through pointer
	// parameters instead: entry -> dangerous output parameter indexes.
	// (The paper's ITS definition covers "return values, pointers, global
	// variables".)
	ITSOut map[uint32][]int
	// StringFilter drops ITS alerts whose key names system data.
	StringFilter bool

	// ChannelWrites reports tainted values reaching the channel setter
	// imports of know.ChannelSetters as SinkChannelWrite alerts (the raw
	// material of the corpus fixpoint). Single-binary scans leave it off.
	ChannelWrites bool
	// ChannelSeeds seeds value taint at channel getter call sites: for
	// each channel kind, the set of keys other binaries were seen writing
	// tainted data to. Keyless getters (spawned-helper argv) match the
	// SelfPath key.
	ChannelSeeds map[know.ChanKind]map[string]bool
	// SelfPath is the image path of the binary under analysis; it is the
	// implicit key of keyless channel getters (a helper binary's argv is
	// keyed by the helper's own path).
	SelfPath string

	// NoAlias disables the bounded points-to pass that connects tainted
	// stores through unresolved pointers to later loads of overlapping
	// abstract locations. On by default; the escape hatch exists so a
	// regression can be bisected to the pass.
	NoAlias bool
	// NoPathcheck disables the sink-to-source path-feasibility pass that
	// refutes alerts with unsatisfiable branch constraints.
	NoPathcheck bool
	// Precision, when non-nil, memoizes the pure per-function inputs of
	// the precision passes across engines over the same binary (repeated
	// scans: corpus fixpoint rounds, warm-cache rescans). Purely a cost
	// saving — results are byte-identical with or without it.
	Precision *PrecisionCache

	// Probe, when set, opens Alias and PathCheck spans around the
	// precision passes; callers run the engine inside a Taint span, which
	// those nest in. Output-neutral.
	Probe stagetime.Probe
}

// SystemDataKeys are the field names treated as system-populated; the
// string filter removes ITS alerts keyed on them (paper §4.3: subnet mask,
// MAC address, IP address fetches are not attacker-controlled).
var SystemDataKeys = map[string]bool{
	"mac_addr": true, "lan_ip": true, "subnet_mask": true,
	"gateway": true, "dns_server": true, "mac": true, "ip_addr": true,
}

// Engine analyzes one binary.
type Engine struct {
	bin   *binimg.Binary
	model *cfg.Model
	opts  Options
	// maxDepth bounds interprocedural value-taint propagation: deep wrapper
	// chains stay in reach while runaway recursion does not.
	maxDepth int

	alerts map[uint32]*Alert // by sink site; first source kind wins
	// taintedGlobals collects global word addresses holding ITS-derived
	// values (value-level store tracking).
	taintedGlobals map[uint32]bool
	// taintedObjects are buffers written by pointer-output sources:
	// base address -> originating key string.
	taintedObjects map[uint32]string
	memo           map[memoKey]bool

	// aliasFacts caches the per-function points-to analysis; aliasTainted
	// collects the abstract locations tainted stores were resolved to.
	aliasFacts   map[uint32]*alias.Facts
	aliasTainted map[alias.Loc]bool
	// unconverged holds the entries of functions where a taint fixpoint ran
	// out of its pass budget; their alerts are marked Degraded.
	unconverged map[uint32]bool
}

// New prepares an engine.
func New(bin *binimg.Binary, model *cfg.Model, opts Options) *Engine {
	return &Engine{
		bin:            bin,
		model:          model,
		opts:           opts,
		maxDepth:       8,
		alerts:         map[uint32]*Alert{},
		taintedGlobals: map[uint32]bool{},
		taintedObjects: map[uint32]string{},
		aliasFacts:     map[uint32]*alias.Facts{},
		aliasTainted:   map[alias.Loc]bool{},
		unconverged:    map[uint32]bool{},
	}
}

// Run performs the analysis and returns the reported alerts sorted by site:
// RunAll's alerts whose Reported is true. Suppressed alerts are retained
// (marked) for diagnostics via AllAlerts.
func (e *Engine) Run() []Alert {
	all := e.RunAll()
	out := all[:0]
	for _, a := range all {
		if a.Reported() {
			out = append(out, a)
		}
	}
	return out
}

// RunAll performs the analysis and returns every alert, suppressed ones
// included, in AllAlerts order.
func (e *Engine) RunAll() []Alert {
	if e.opts.UseCTS {
		e.runCTS()
	}
	if len(e.opts.ITS) > 0 || len(e.opts.ITSOut) > 0 {
		e.runITS()
	}
	if len(e.opts.ChannelSeeds) > 0 {
		e.runChannels()
	}
	e.finishAlerts()
	return e.AllAlerts()
}

// AllAlerts returns every alert including filtered ones.
func (e *Engine) AllAlerts() []Alert {
	out := make([]Alert, 0, len(e.alerts))
	for _, a := range e.alerts {
		out = append(out, *a)
	}
	SortAlerts(out)
	return out
}

// SortAlerts orders alerts fully deterministically: by sink site, then
// containing function, sink name, kind, source kind, key, cross-binary hop
// endpoint (Via), refuting constraint, degraded mark (non-degraded first),
// and binary. Both engines report in this order, so alert
// lists — and the service responses built from them — are byte-stable
// across runs and worker counts even if one site ever carries several
// alerts.
func SortAlerts(out []Alert) {
	sort.Slice(out, func(i, j int) bool {
		a, b := &out[i], &out[j]
		if a.Site != b.Site {
			return a.Site < b.Site
		}
		if a.Func != b.Func {
			return a.Func < b.Func
		}
		if a.Sink != b.Sink {
			return a.Sink < b.Sink
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		if a.From != b.From {
			return a.From < b.From
		}
		if a.Key != b.Key {
			return a.Key < b.Key
		}
		if a.Via != b.Via {
			return a.Via < b.Via
		}
		if a.Refuted != b.Refuted {
			return a.Refuted < b.Refuted
		}
		if a.Degraded != b.Degraded {
			return b.Degraded
		}
		return a.Binary < b.Binary
	})
}

func (e *Engine) report(a Alert) {
	if prev, ok := e.alerts[a.Site]; ok {
		// Keep the existing alert; unfilter it if the new evidence is not
		// filtered.
		if prev.Filtered && !a.Filtered {
			*prev = a
		}
		return
	}
	cp := a
	e.alerts[a.Site] = &cp
}

// sinkSites enumerates sink call sites across the binary.
func (e *Engine) sinkSites() []cfg.CallSite {
	var out []cfg.CallSite
	for _, f := range e.model.FuncsInOrder() {
		for _, cs := range f.Calls {
			if know.IsSink(cs.ImportName) {
				out = append(out, cs)
			}
		}
	}
	return out
}

// writableConstant reports whether a constant denotes a pointer into
// writable memory (data or bss).
func (e *Engine) writableConstant(c uint32) bool {
	sec := e.bin.SectionOf(c)
	return sec == "data" || sec == "bss"
}

// bindsWritable reports whether the argument register at a call site
// resolves — possibly through parameter pass-through chains up the call
// graph — to a pointer into writable memory.
func (e *Engine) bindsWritable(fn *cfg.Function, addr uint32, reg isa.Reg, depth int) bool {
	if depth > 8 {
		return false
	}
	o := dataflow.BacktrackArg(fn, addr, reg)
	switch o.Kind {
	case dataflow.OriginConst:
		return e.writableConstant(o.Const)
	case dataflow.OriginParam:
		for _, cs := range e.model.Callers[fn.Entry] {
			caller, ok := e.model.FuncAt(cs.Caller)
			if ok && e.bindsWritable(caller, cs.Addr, isa.Reg(o.Param), depth+1) {
				return true
			}
		}
	}
	return false
}

// runCTS performs region-level classical-source analysis.
func (e *Engine) runCTS() {
	regionTainted := false
	for _, f := range e.model.FuncsInOrder() {
		for _, cs := range f.Calls {
			spec, ok := know.Sources[cs.ImportName]
			if !ok {
				continue
			}
			caller, _ := e.model.FuncAt(cs.Caller)
			if caller == nil {
				continue
			}
			for _, pi := range spec.TaintedParams {
				if e.bindsWritable(caller, cs.Addr, isa.Reg(pi), 0) {
					// The interface function writes user data into
					// statically-known writable memory: the region model
					// considers all of it attacker-influenced.
					regionTainted = true
				}
			}
			if spec.TaintsReturn {
				e.propagateValue(caller, cs.Addr, FromCTSValue, "", 0)
			}
		}
	}
	if !regionTainted {
		return
	}
	for _, cs := range e.sinkSites() {
		spec := know.Sinks[cs.ImportName]
		caller, _ := e.model.FuncAt(cs.Caller)
		if caller == nil {
			continue
		}
		for _, pi := range spec.DangerousParams {
			c, ok := dataflow.BacktrackRegister(caller, cs.Addr, isa.Reg(pi))
			if !ok || !e.writableConstant(c) {
				continue
			}
			e.report(Alert{
				Binary: e.bin.Name, Site: cs.Addr, Func: cs.Caller,
				Sink: cs.ImportName, Kind: spec.Kind, From: FromCTSRegion,
			})
			break
		}
	}
}

// runITS performs value-level analysis from every ITS call site.
func (e *Engine) runITS() {
	its := map[uint32]bool{}
	for _, entry := range e.opts.ITS {
		its[entry] = true
	}
	for _, f := range e.model.FuncsInOrder() {
		for _, cs := range f.Calls {
			if cs.Target == 0 {
				continue
			}
			retITS := its[cs.Target]
			outParams, outITS := e.opts.ITSOut[cs.Target]
			if !retITS && !outITS {
				continue
			}
			caller, _ := e.model.FuncAt(cs.Caller)
			if caller == nil {
				continue
			}
			key := ""
			if c, ok := dataflow.BacktrackRegister(caller, cs.Addr, isa.R0); ok {
				if s, ok := dataflow.ClassifyStringConstant(e.bin, c); ok {
					key = s
				}
			}
			if retITS {
				e.propagateValue(caller, cs.Addr, FromITS, key, 0)
			}
			for _, pi := range outParams {
				// The source writes user data through this pointer: a
				// statically known buffer becomes a tainted object.
				if c, ok := dataflow.BacktrackRegister(caller, cs.Addr, isa.Reg(pi)); ok && e.writableConstant(c) {
					e.taintObject(c, key)
				}
			}
		}
	}
	// Second pass: globals that received tainted values feed later loads —
	// and, with the points-to pass on, abstract locations tainted through
	// unresolved stores feed loads in functions propagated earlier.
	if len(e.taintedGlobals) > 0 || len(e.aliasTainted) > 0 {
		for _, f := range e.model.FuncsInOrder() {
			e.propagateGlobals(f)
		}
	}
	// Sinks consuming pointers into tainted objects.
	if len(e.taintedObjects) > 0 {
		e.scanObjectSinks()
	}
}

// runChannels seeds value taint at cross-binary channel getter call sites
// whose key the corpus fixpoint marked tainted. A getter behaves like an
// intermediate source whose data arrives from another binary: its return
// value is tracked with full value-level precision, and the seeding
// endpoint is recorded in Alert.Via so provenance chains can be stitched
// together across binaries.
func (e *Engine) runChannels() {
	for _, f := range e.model.FuncsInOrder() {
		for _, cs := range f.Calls {
			spec, ok := know.ChannelGetters[cs.ImportName]
			if !ok || !spec.TaintsReturn {
				continue
			}
			keys := e.opts.ChannelSeeds[spec.Chan]
			if len(keys) == 0 {
				continue
			}
			caller, _ := e.model.FuncAt(cs.Caller)
			if caller == nil {
				continue
			}
			key := e.opts.SelfPath
			if spec.KeyParam >= 0 {
				c, ok := dataflow.BacktrackRegister(caller, cs.Addr, isa.Reg(spec.KeyParam))
				if !ok {
					continue
				}
				s, ok := dataflow.ClassifyStringConstant(e.bin, c)
				if !ok {
					continue
				}
				key = s
			}
			if !keys[key] {
				continue
			}
			via := spec.Chan.String() + ":" + key
			e.propagateChannel(caller, cs.Addr, key, via)
		}
	}
}

// taintObject marks a 64-byte buffer as holding fetched user data.
const taintedObjectSpan = 64

func (e *Engine) taintObject(base uint32, key string) {
	if _, ok := e.taintedObjects[base]; !ok {
		e.taintedObjects[base] = key
	}
}

// scanObjectSinks reports sinks whose dangerous argument points into a
// buffer written by a pointer-output source.
func (e *Engine) scanObjectSinks() {
	// When two tainted spans overlap a constant, the object with the
	// closest (highest) base wins; picking the first map hit instead made
	// the reported key vary run to run.
	inObject := func(c uint32) (string, bool) {
		var bestBase uint32
		var bestKey string
		found := false
		for base, key := range e.taintedObjects {
			if c >= base && c < base+taintedObjectSpan && (!found || base > bestBase) {
				bestBase, bestKey, found = base, key, true
			}
		}
		return bestKey, found
	}
	for _, cs := range e.sinkSites() {
		spec := know.Sinks[cs.ImportName]
		caller, _ := e.model.FuncAt(cs.Caller)
		if caller == nil {
			continue
		}
		for _, pi := range spec.DangerousParams {
			c, ok := dataflow.BacktrackRegister(caller, cs.Addr, isa.Reg(pi))
			if !ok {
				continue
			}
			key, hit := inObject(c)
			if !hit {
				continue
			}
			a := Alert{
				Binary: e.bin.Name, Site: cs.Addr, Func: cs.Caller,
				Sink: cs.ImportName, Kind: spec.Kind, From: FromITS, Key: key,
			}
			if e.opts.StringFilter && SystemDataKeys[key] {
				a.Filtered = true
			}
			e.report(a)
			break
		}
	}
}
