package synth

import (
	"fmt"
	"math/rand"

	"fits/internal/binimg"
	"fits/internal/firmware"
	"fits/internal/minic"
)

// pickStrong draws the ITS-like confounder count from the vendor's
// distribution, using the latest-firmware override when present.
func pickStrong(r *rand.Rand, p VendorProfile, latest bool) int {
	choices := p.StrongChoices
	if latest && len(p.LatestStrong) > 0 {
		choices = p.LatestStrong
	}
	if len(choices) == 0 {
		return 0
	}
	return choices[r.Intn(len(choices))]
}

// shimProgram builds the network shim library used by the pre-processing
// failure mode: it exports shim_* wrappers so the application binary never
// imports the interface functions directly.
func shimProgram() *minic.Program {
	p := &minic.Program{Name: "libnetshim.so", Library: true}
	wrap := func(name string, arity int) {
		args := make([]minic.Expr, arity)
		for i := range args {
			args[i] = minic.Var(fmt.Sprintf("p%d", i))
		}
		p.Funcs = append(p.Funcs, &minic.Func{
			Name: "shim_" + name, NParams: arity, Exported: true,
			Body: []minic.Stmt{minic.Return{E: minic.Call{Name: name, Args: args}}},
		})
	}
	wrap("socket", 3)
	wrap("bind", 3)
	wrap("listen", 2)
	wrap("accept", 3)
	wrap("recv", 4)
	return p
}

// Generate builds one complete firmware sample from its specification.
func Generate(spec SampleSpec) (*Sample, error) {
	profile, ok := Profiles[spec.Vendor]
	if !ok {
		return nil, fmt.Errorf("synth: unknown vendor %q", spec.Vendor)
	}
	r := rand.New(rand.NewSource(spec.Seed))
	arch := profile.Archs[r.Intn(len(profile.Archs))]

	knobs := appKnobs{
		Name:       profile.BinName,
		HeapReqbuf: profile.HeapReq,
		RecvDepth:  pick(r, profile.RecvDepth),
		ITSCount:   pick(r, profile.ITSCount),
		Strong:     pickStrong(r, profile, spec.Latest),
		Weak:       pick(r, profile.Weak),
		Loggers:    pick(r, profile.Loggers),
		Filler:     pick(r, profile.Filler),
		DeepExtra:  pick(r, profile.DeepExtra),
		Handlers: map[HandlerCategory]int{
			VulnShallow:      pick(r, profile.VulnShallowN),
			VulnDeep:         pick(r, profile.VulnDeepN),
			SafeSanitized:    pick(r, profile.SanitizedN),
			BenignSystemData: pick(r, profile.BenignN),
			SystemKeyFetch:   pick(r, profile.SysKeyN),
			VulnRaw:          pick(r, profile.RawN),
			SafeRaw:          pick(r, profile.SafeRawN),
		},
	}
	// Latest firmware carries more functionality (and more bugs), as the
	// newest NETGEAR/Tenda/Cisco samples do in the paper.
	if spec.Latest && spec.Vendor != "TP-Link" && spec.Vendor != "D-Link" {
		knobs.Handlers[VulnShallow] += 4 + r.Intn(4)
		knobs.Handlers[VulnDeep] += 2 + r.Intn(2)
	}
	for cat, n := range spec.ExtraHandlers {
		knobs.Handlers[cat] += n
	}
	switch spec.FailureMode {
	case "preprocess-miss":
		knobs.ShimNet = true
	case "offset-indexed":
		knobs.OffsetIndexed = true
		knobs.Filler = 40 + r.Intn(40) // simple devices are small
	}

	// Build and link the programs.
	libcProg := LibcProgram(r)
	libcBin, err := minic.Link(libcProg, arch, nil)
	if err != nil {
		return nil, fmt.Errorf("synth: libc: %w", err)
	}

	app := buildApp(r, knobs)
	// NETGEAR-profile firmware carries a second network binary — a CGI
	// helper the web server delegates to — reproducing the paper's
	// multi-binary input handling (its Table 4 lists netcgi targets). The
	// helper has its own fetch function and a clone-confounder pair, so it
	// does not perturb the per-sample top-k outcome of the main binary.
	var cgi appResult
	hasCGI := spec.Vendor == "NETGEAR" && spec.FailureMode == ""
	if hasCGI {
		cgi = buildApp(r, appKnobs{
			Name:      "netcgi",
			RecvDepth: 2 + r.Intn(2),
			ITSCount:  1,
			Strong:    2,
			Weak:      1,
			Loggers:   1,
			Filler:    60 + r.Intn(60),
			DeepExtra: 2,
			Handlers: map[HandlerCategory]int{
				VulnShallow:      1,
				SafeSanitized:    1,
				BenignSystemData: 1,
			},
		})
	}
	needed := []string{"libc.so"}
	var shimBin *binimg.Binary
	if knobs.ShimNet {
		shimProg := shimProgram()
		shimBin, err = minic.Link(shimProg, arch, []string{"libc.so"})
		if err != nil {
			return nil, fmt.Errorf("synth: shim: %w", err)
		}
		needed = []string{"libnetshim.so", "libc.so"}
	}
	appBin, err := minic.Link(app.Prog, arch, needed)
	if err != nil {
		return nil, fmt.Errorf("synth: app: %w", err)
	}

	// Fill manifest entries from the pre-strip symbol table.
	man := Manifest{
		Vendor:      spec.Vendor,
		Product:     spec.Product,
		Version:     spec.Version,
		Series:      spec.Series,
		Arch:        arch,
		Scheme:      profile.Scheme,
		Latest:      spec.Latest,
		FailureMode: spec.FailureMode,
	}
	var cgiBin *binimg.Binary
	if hasCGI {
		cgiBin, err = minic.Link(cgi.Prog, arch, needed)
		if err != nil {
			return nil, fmt.Errorf("synth: cgi: %w", err)
		}
	}

	binPath := profile.BinDir + "/" + profile.BinName
	man.NetBinaries = []string{binPath}
	recordTruth := func(res appResult, bin *binimg.Binary, name string) {
		addrOf := map[string]uint32{}
		for _, s := range bin.Funcs {
			addrOf[s.Name] = s.Addr
		}
		for _, fn := range res.ITSNames {
			man.ITS = append(man.ITS, ITSTruth{
				Binary: name, FuncName: fn, Entry: addrOf[fn], TaintsReturn: true,
			})
		}
		for _, h := range res.Handlers {
			h.Binary = name
			h.Entry = addrOf[h.FuncName]
			h.SinkEntry = addrOf[h.SinkFuncName]
			man.Handlers = append(man.Handlers, h)
		}
	}
	recordTruth(app, appBin, profile.BinName)
	if hasCGI {
		man.NetBinaries = append(man.NetBinaries, "bin/netcgi")
		recordTruth(cgi, cgiBin, "netcgi")
	}

	// Production firmware ships stripped.
	appBin.Strip()
	libcBin.Strip()
	if shimBin != nil {
		shimBin.Strip()
	}
	if cgiBin != nil {
		cgiBin.Strip()
	}

	// Assemble the filesystem.
	img := &firmware.Image{
		Vendor:  spec.Vendor,
		Product: spec.Product,
		Version: spec.Version,
		Files: []firmware.File{
			{Path: binPath, Data: appBin.Encode()},
			{Path: "lib/libc.so", Data: libcBin.Encode()},
			{Path: "etc/version", Data: []byte(spec.Version + "\n")},
			{Path: "etc/board.info", Data: []byte(fmt.Sprintf("vendor=%s\nmodel=%s\narch=%s\n", spec.Vendor, spec.Product, arch))},
			{Path: "www/index.html", Data: []byte("<html><body>" + spec.Product + "</body></html>")},
		},
	}
	if shimBin != nil {
		img.Files = append(img.Files, firmware.File{Path: "lib/libnetshim.so", Data: shimBin.Encode()})
	}
	if cgiBin != nil {
		img.Files = append(img.Files, firmware.File{Path: "bin/netcgi", Data: cgiBin.Encode()})
	}

	packed := img.Pack(firmware.PackOptions{
		Scheme:  profile.Scheme,
		Key:     r.Uint32(),
		Padding: 256 + r.Intn(2048),
		PadSeed: byte(r.Uint32()),
	})
	return &Sample{Image: img, Packed: packed, Manifest: man}, nil
}

// GenerateCorpus builds the full 59-sample dataset.
func GenerateCorpus() ([]*Sample, error) {
	specs := Dataset()
	out := make([]*Sample, 0, len(specs))
	for _, spec := range specs {
		s, err := Generate(spec)
		if err != nil {
			return nil, fmt.Errorf("%s %s: %w", spec.Vendor, spec.Product, err)
		}
		out = append(out, s)
	}
	return out, nil
}
