// Package xchan models the cross-binary communication channels of a
// firmware corpus: the shared nvram-like configuration store, process
// environment variables, and spawned-helper argument vectors. It
// enumerates every setter and getter call site with its statically
// recovered key and pairs writers to readers, so taint published by one
// binary can become a seed source in another.
//
// Endpoints and pairs are value types ordered deterministically; the
// corpus fixpoint and its report iterate them without any map-order
// dependence.
package xchan

import (
	"sort"

	"fits/internal/binimg"
	"fits/internal/cfg"
	"fits/internal/dataflow"
	"fits/internal/isa"
	"fits/internal/know"
)

// Endpoint is one channel accessor call site in one binary.
type Endpoint struct {
	// Binary is the image path of the binary containing the call site.
	Binary string
	// Func is the entry of the function containing the call; Site the call
	// instruction address.
	Func uint32
	Site uint32
	// Import is the accessor's library function name (nvram_set, env_get, ...).
	Import string
	Chan   know.ChanKind
	// Key is the statically recovered channel key. For keyless getters
	// (spawned-helper argv) it is the binary's own path — the key a
	// fw_spawn setter names. Endpoints whose key cannot be recovered are
	// not emitted; they cannot be paired.
	Key string
	// Setter distinguishes writers from readers.
	Setter bool
}

// ID renders the endpoint's channel identity, the join key of the corpus
// fixpoint: "<chan>:<key>".
func (e Endpoint) ID() string { return e.Chan.String() + ":" + e.Key }

// Endpoints enumerates the channel accessor call sites of one binary, in
// deterministic (function, site) order.
func Endpoints(path string, bin *binimg.Binary, model *cfg.Model) []Endpoint {
	var out []Endpoint
	for _, f := range model.FuncsInOrder() {
		for _, cs := range f.Calls {
			var spec know.ChannelSpec
			setter := false
			if s, ok := know.ChannelSetters[cs.ImportName]; ok {
				spec, setter = s, true
			} else if g, ok := know.ChannelGetters[cs.ImportName]; ok {
				spec = g
			} else {
				continue
			}
			caller, _ := model.FuncAt(cs.Caller)
			if caller == nil {
				continue
			}
			key := path
			if spec.KeyParam >= 0 {
				c, ok := dataflow.BacktrackRegister(caller, cs.Addr, isa.Reg(spec.KeyParam))
				if !ok {
					continue
				}
				s, ok := dataflow.ClassifyStringConstant(bin, c)
				if !ok || s == "" {
					continue
				}
				key = s
			}
			out = append(out, Endpoint{
				Binary: path, Func: cs.Caller, Site: cs.Addr,
				Import: cs.ImportName, Chan: spec.Chan, Key: key, Setter: setter,
			})
		}
	}
	sortEndpoints(out)
	return out
}

// GetterKeys collects, per channel kind, the set of keys some getter in
// the corpus reads. The fixpoint only propagates written keys a reader
// exists for.
func GetterKeys(eps []Endpoint) map[know.ChanKind]map[string]bool {
	out := map[know.ChanKind]map[string]bool{}
	for _, e := range eps {
		if e.Setter {
			continue
		}
		m := out[e.Chan]
		if m == nil {
			m = map[string]bool{}
			out[e.Chan] = m
		}
		m[e.Key] = true
	}
	return out
}

func sortEndpoints(eps []Endpoint) {
	sort.Slice(eps, func(i, j int) bool {
		a, b := eps[i], eps[j]
		if a.Binary != b.Binary {
			return a.Binary < b.Binary
		}
		if a.Func != b.Func {
			return a.Func < b.Func
		}
		if a.Site != b.Site {
			return a.Site < b.Site
		}
		return a.Import < b.Import
	})
}
