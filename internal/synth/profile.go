package synth

import (
	"fmt"
	"hash/fnv"

	"fits/internal/firmware"
	"fits/internal/isa"
)

// rng ranges are [lo, hi] inclusive.
type span [2]int

// VendorProfile captures how one vendor's firmware is structured: sizes,
// architecture, encryption, request-buffer placement, and the mix of
// handlers and confounders. The knobs are chosen so the corpus reproduces
// the per-vendor contrasts of the paper's Tables 3 and 5.
type VendorProfile struct {
	Name      string
	Series    []string
	Archs     []isa.Arch
	Scheme    firmware.Scheme
	BinName   string // network binary file name
	BinDir    string
	HeapReq   bool // request buffer on the heap (TP-Link-style)
	RecvDepth span
	DeepExtra span
	ITSCount  span
	// StrongChoices is the distribution of ITS-like confounder counts: one
	// entry is drawn per sample. LatestStrong, when non-empty, overrides it
	// for latest-firmware samples. Each confounder present outranks the
	// true ITS with high probability, shaping the top-1/2/3 split.
	StrongChoices []int
	LatestStrong  []int
	Weak          span
	Loggers       span
	Filler        span
	// Handler counts by category.
	VulnShallowN span
	VulnDeepN    span
	SanitizedN   span
	BenignN      span
	SysKeyN      span
	RawN         span
	SafeRawN     span
}

// Profiles are the five vendors of the dataset.
var Profiles = map[string]VendorProfile{
	"NETGEAR": {
		Name: "NETGEAR", Series: []string{"R", "XR", "WNR"},
		Archs:  []isa.Arch{isa.ArchARM, isa.ArchAARCH},
		Scheme: firmware.SchemeNone, BinName: "httpd", BinDir: "bin",
		RecvDepth: span{4, 6}, DeepExtra: span{2, 3},
		ITSCount: span{1, 2}, StrongChoices: []int{0, 0, 0, 0, 0, 1, 1}, LatestStrong: []int{0},
		Weak: span{3, 5}, Loggers: span{1, 2},
		Filler:       span{260, 420},
		VulnShallowN: span{4, 6}, VulnDeepN: span{2, 4},
		SanitizedN: span{2, 3}, BenignN: span{6, 10}, SysKeyN: span{1, 2},
		RawN: span{1, 1}, SafeRawN: span{0, 1},
	},
	"D-Link": {
		Name: "D-Link", Series: []string{"DIR", "DWR", "DCS", "DAP"},
		Archs:  []isa.Arch{isa.ArchMIPS, isa.ArchARM},
		Scheme: firmware.SchemeXOR, BinName: "prog.cgi", BinDir: "bin",
		RecvDepth: span{3, 5}, DeepExtra: span{2, 4},
		ITSCount: span{1, 1}, StrongChoices: []int{0, 0, 2, 2, 2}, LatestStrong: []int{0, 2, 2},
		Weak: span{2, 4}, Loggers: span{2, 3},
		Filler:       span{120, 300},
		VulnShallowN: span{1, 2}, VulnDeepN: span{1, 2},
		SanitizedN: span{1, 2}, BenignN: span{0, 1}, SysKeyN: span{1, 1},
		RawN: span{1, 2}, SafeRawN: span{0, 1},
	},
	"TP-Link": {
		Name: "TP-Link", Series: []string{"TD", "WA", "WR", "TX", "KC", "AP", "C"},
		Archs:  []isa.Arch{isa.ArchMIPS, isa.ArchAARCH},
		Scheme: firmware.SchemeStream, BinName: "httpd", BinDir: "usr/bin",
		HeapReq:   true,
		RecvDepth: span{3, 5}, DeepExtra: span{2, 3},
		ITSCount: span{1, 1}, StrongChoices: []int{0, 0, 1, 1, 2}, LatestStrong: []int{2, 2},
		Weak: span{2, 4}, Loggers: span{1, 3},
		Filler:       span{80, 320},
		VulnShallowN: span{0, 1}, VulnDeepN: span{0, 1},
		SanitizedN: span{2, 4}, BenignN: span{1, 2}, SysKeyN: span{1, 2},
		RawN: span{0, 1}, SafeRawN: span{0, 1},
	},
	"Tenda": {
		Name: "Tenda", Series: []string{"AC", "WH", "FH", "G"},
		Archs:  []isa.Arch{isa.ArchARM},
		Scheme: firmware.SchemeXOR, BinName: "httpd", BinDir: "bin",
		RecvDepth: span{2, 4}, DeepExtra: span{2, 3},
		ITSCount: span{1, 2}, StrongChoices: []int{0, 0, 0, 0, 2, 2, 2}, LatestStrong: []int{0, 2},
		Weak: span{2, 3}, Loggers: span{1, 2},
		Filler:       span{200, 380},
		VulnShallowN: span{6, 9}, VulnDeepN: span{3, 4},
		SanitizedN: span{1, 2}, BenignN: span{0, 1}, SysKeyN: span{1, 2},
		RawN: span{1, 1}, SafeRawN: span{0, 1},
	},
	"Cisco": {
		Name: "Cisco", Series: []string{"RV"},
		Archs:  []isa.Arch{isa.ArchARM},
		Scheme: firmware.SchemeStream, BinName: "httpd", BinDir: "usr/sbin",
		HeapReq:   true,
		RecvDepth: span{5, 6}, DeepExtra: span{3, 4},
		ITSCount: span{1, 1}, StrongChoices: []int{2}, LatestStrong: []int{2},
		Weak: span{3, 4}, Loggers: span{1, 1},
		Filler:       span{300, 380},
		VulnShallowN: span{22, 26}, VulnDeepN: span{10, 14},
		SanitizedN: span{3, 4}, BenignN: span{4, 6}, SysKeyN: span{2, 3},
		RawN: span{0, 0}, SafeRawN: span{0, 0},
	},
}

// SampleSpec identifies one firmware sample of the dataset.
type SampleSpec struct {
	Vendor  string
	Series  string
	Product string
	Version string
	Latest  bool
	// FailureMode: "", "preprocess-miss" or "offset-indexed".
	FailureMode string
	Seed        int64
	// ExtraHandlers plants additional handlers of the given categories in
	// the main network binary, on top of the vendor profile's mix. The
	// precision evaluation uses this to plant SafeInfeasible and
	// VulnAliased cases; Dataset() leaves it nil so the standard corpus is
	// byte-identical.
	ExtraHandlers map[HandlerCategory]int
	// Arch overrides the encoding the vendor profile would pick, after
	// the pick has drawn from the seed, so nothing else about the sample
	// changes. Dataset() leaves it zero: each profile's own pick.
	Arch isa.Arch
}

func specSeed(vendor, product, version string) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%s|%s", vendor, product, version)
	return int64(h.Sum64() & 0x7fffffffffffffff)
}

// Dataset returns the 59 sample specifications: the 49 Karonte-dataset
// samples and the 10 latest-firmware samples, with the six engineered
// failures distributed as in the paper (four pre-processing misses, two
// offset-indexed designs).
func Dataset() []SampleSpec {
	var out []SampleSpec
	add := func(vendor string, count int, latest bool, failures map[int]string) {
		p := Profiles[vendor]
		for i := 0; i < count; i++ {
			series := p.Series[i%len(p.Series)]
			gen := 1000 + 37*i
			version := fmt.Sprintf("V1.%d.%d.%d", i%4, i%10, 10+i)
			suffix := ""
			if latest {
				suffix = "N"
				version = fmt.Sprintf("V2.%d.%d.%d", i%3, i%8, 20+i)
			}
			product := fmt.Sprintf("%s%d%s", series, gen, suffix)
			out = append(out, SampleSpec{
				Vendor:      vendor,
				Series:      series,
				Product:     product,
				Version:     version,
				Latest:      latest,
				FailureMode: failures[i],
				Seed:        specSeed(vendor, product, version),
			})
		}
	}
	// Karonte dataset: 49 samples.
	add("NETGEAR", 17, false, nil)
	add("D-Link", 9, false, map[int]string{2: "preprocess-miss", 6: "offset-indexed"})
	add("TP-Link", 16, false, map[int]string{3: "preprocess-miss", 9: "preprocess-miss", 13: "offset-indexed"})
	add("Tenda", 7, false, map[int]string{4: "preprocess-miss"})
	// Latest firmware: 10 samples.
	add("NETGEAR", 2, true, nil)
	add("D-Link", 3, true, nil)
	add("TP-Link", 2, true, nil)
	add("Tenda", 2, true, nil)
	add("Cisco", 1, true, nil)
	return out
}

func pick(r interface{ Intn(int) int }, s span) int {
	if s[1] <= s[0] {
		return s[0]
	}
	return s[0] + r.Intn(s[1]-s[0]+1)
}
