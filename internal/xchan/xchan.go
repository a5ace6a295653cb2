// Package xchan models the cross-binary communication channels of a
// firmware corpus: the shared nvram-like configuration store, process
// environment variables, and spawned-helper argument vectors. It is the
// one place that decides the channel model: the key of an accessor call
// site (Key), the "<chan>:<key>" identity that joins writers to readers
// (ID, ParseID), and every setter and getter endpoint of a binary
// (Endpoints), so taint published by one binary can become a seed source
// in another.
//
// Endpoints are value types ordered deterministically; the corpus fixpoint
// and its report iterate them without any map-order dependence.
package xchan

import (
	"sort"
	"strings"

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
	// Key is the call site's channel key (see Key). Endpoints whose key
	// cannot be recovered are not emitted; they cannot be paired.
	Key string
	// Setter distinguishes writers from readers.
	Setter bool
}

// ID renders the endpoint's channel identity, the join key of the corpus
// fixpoint.
func (e Endpoint) ID() string { return ID(e.Chan, e.Key) }

// ID renders a channel identity: "<chan>:<key>" (e.g. "nvram:wl_key").
// Taint alerts carry endpoints in this form; ParseID reads it back.
func ID(ch know.ChanKind, key string) string { return ch.String() + ":" + key }

// ParseID splits an identity rendered by ID into its channel kind and key.
func ParseID(id string) (know.ChanKind, string, bool) {
	name, key, ok := strings.Cut(id, ":")
	if ok {
		for ch := know.ChanNVRAM; ch <= know.ChanSpawn; ch++ {
			if name == ch.String() {
				return ch, key, true
			}
		}
	}
	return 0, "", false
}

// Key gives the channel key of the accessor call at site in fn: a keyless
// accessor (negative KeyParam) is keyed by self, the binary's own image
// path — the key a fw_spawn setter names; any other key is the non-empty
// string constant passed at KeyParam. ok is false when that constant
// cannot be recovered: such a site cannot be paired with any other.
func Key(spec know.ChannelSpec, self string, bin *binimg.Binary, fn *cfg.Function, site uint32) (string, bool) {
	if spec.KeyParam < 0 {
		return self, true
	}
	key, ok := dataflow.StringArg(bin, fn, site, isa.Reg(spec.KeyParam))
	return key, ok && key != ""
}

// Endpoints enumerates the channel accessor call sites of one binary, in
// deterministic (function, site) order.
func Endpoints(path string, bin *binimg.Binary, model *cfg.Model) []Endpoint {
	var out []Endpoint
	for _, f := range model.FuncsInOrder() {
		for _, cs := range f.Calls {
			spec, setter := know.ChannelSetters[cs.ImportName]
			if !setter {
				var ok bool
				if spec, ok = know.ChannelGetters[cs.ImportName]; !ok {
					continue
				}
			}
			key, ok := Key(spec, path, bin, f, cs.Addr)
			if !ok {
				continue
			}
			out = append(out, Endpoint{
				Binary: path, Func: f.Entry, Site: cs.Addr,
				Import: cs.ImportName, Chan: spec.Chan, Key: key, Setter: setter,
			})
		}
	}
	sortEndpoints(out)
	return out
}

// GetterIDs collects the IDs of the endpoints some getter in eps reads.
// The fixpoint only propagates written endpoints a reader exists for.
func GetterIDs(eps []Endpoint) map[string]bool {
	out := map[string]bool{}
	for _, e := range eps {
		if !e.Setter {
			out[e.ID()] = true
		}
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
