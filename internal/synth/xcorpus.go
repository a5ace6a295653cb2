package synth

import (
	"fmt"
	"math/rand"

	"fits/internal/firmware"
	"fits/internal/isa"
	"fits/internal/know"
	"fits/internal/minic"
)

// XHopTruth is one planted cross-binary channel hop: FromBinary publishes
// tainted data on (Chan, Key).
type XHopTruth struct {
	FromBinary string
	Chan       know.ChanKind
	Key        string
}

// XFlowTruth is the ground truth for one planted corpus flow, from a
// front-end parameter (when FrontKey is non-empty) through zero or more
// channel hops to a sink call.
type XFlowTruth struct {
	Name      string
	FrontKey  string // request parameter named by a front-end artifact
	FrontFile string // artifact naming the parameter
	Hops      []XHopTruth
	// SinkBinary is the image path of the binary containing the sink;
	// SinkFunc/SinkEntry locate the function whose body calls it.
	SinkBinary string
	SinkFunc   string
	SinkEntry  uint32
	Sink       string
	Kind       know.SinkKind
	// CrossBinary marks flows whose sink lives in a different binary than
	// the border binary — invisible to any single-binary analysis.
	CrossBinary bool
	// Vulnerable: an alert at the sink is a true positive.
	Vulnerable bool
}

// XManifest is the ground truth of one generated multi-binary corpus.
type XManifest struct {
	Arch isa.Arch
	// Binaries are the image paths of all executables, in path order. The
	// first is the border binary (the only one importing network
	// interfaces).
	Binaries   []string
	FrontFiles []string
	// Keywords are the parameter names the front-end artifacts carry.
	Keywords []string
	Flows    []XFlowTruth
}

// CrossFlows returns the planted flows whose sink binary differs from the
// border binary.
func (m *XManifest) CrossFlows() []XFlowTruth {
	var out []XFlowTruth
	for _, f := range m.Flows {
		if f.CrossBinary {
			out = append(out, f)
		}
	}
	return out
}

// XCorpus is one generated multi-binary firmware tree with its ground truth.
type XCorpus struct {
	Files    []firmware.File
	Manifest XManifest
}

// Image wraps the corpus files as a packable firmware image.
func (x *XCorpus) Image() *firmware.Image {
	return &firmware.Image{Vendor: "synth", Product: "xcorpus", Files: x.Files}
}

// Front-end artifacts. The parameter vocabulary deliberately overlaps the
// border binary's fetch keys and nothing else: username/comment drive local
// handlers, wifi_pass/timezone/ping_host drive channel writers.
const xIndexHTML = `<html><body>
<form action="/apply.cgi" method="post">
  <input type="text" name="username" value="admin">
  <textarea name="comment" rows="4"></textarea>
  <input type="submit" value="Apply">
</form>
</body></html>
`

const xAppJS = `function apply(v, h) {
  fetch("/apply.cgi?wifi_pass=" + encodeURIComponent(v));
  var fd = new FormData();
  fd.append("ping_host", h);
  return fd;
}
`

const xWebParamsConf = `# defaults rendered into the settings page
timezone=UTC
`

// xhandler couples a generated border-binary handler with its flow truth.
type xhandler struct {
	fn   string
	body func(b *xbuilder) []minic.Stmt
}

// xbuilder accumulates one corpus program.
type xbuilder struct {
	p *minic.Program
}

func (b *xbuilder) fn(name string, nparams int, body []minic.Stmt) {
	b.p.Funcs = append(b.p.Funcs, &minic.Func{Name: name, NParams: nparams, Body: body})
}

// fetch builds the border binary's keyed request-field fetch.
func xfetch(key string) minic.Expr {
	return minic.Call{Name: "get_param", Args: []minic.Expr{
		minic.Str(key), minic.GlobalRef("g_kvstore"), i32(1024)}}
}

// guarded wraps a fetched value: bail out when the key is absent, then run
// the use statements on "val".
func xguarded(key string, use ...minic.Stmt) []minic.Stmt {
	body := []minic.Stmt{
		minic.Let{Name: "val", E: xfetch(key)},
		minic.If{Cond: minic.Cond{Op: minic.Eq, L: v("val"), R: i32(0)},
			Then: []minic.Stmt{minic.Return{E: i32(0)}}},
	}
	body = append(body, use...)
	return append(body, minic.Return{E: i32(0)})
}

// xhttpdProgram builds the border binary: the only corpus executable with
// network imports. It parses requests into g_kvstore, fetches fields through
// get_param, and either sinks them locally or publishes them on a channel.
func xhttpdProgram() *minic.Program {
	b := &xbuilder{p: &minic.Program{Name: "httpd", Globals: []*minic.Global{
		{Name: "g_reqbuf", Size: 1024},
		{Name: "g_kvstore", Size: 1024},
		{Name: "g_outbuf", Size: 256},
	}}}
	b.fn("get_param", 3, keyedFetchBody(0))

	// Local flows: visible to single-binary analysis.
	b.fn("h_local_vuln", 0, xguarded("username",
		minic.ExprStmt{E: minic.Call{Name: "strcpy", Args: []minic.Expr{
			minic.GlobalRef("g_outbuf"), v("val")}}}))
	b.fn("h_local_safe", 0, xguarded("comment",
		minic.Let{Name: "n", E: minic.Call{Name: "strlen", Args: []minic.Expr{v("val")}}},
		minic.If{Cond: minic.Cond{Op: minic.Lt, L: v("n"), R: i32(32)},
			Then: []minic.Stmt{minic.ExprStmt{E: minic.Call{Name: "strncpy", Args: []minic.Expr{
				minic.GlobalRef("g_outbuf"), v("val"), i32(512)}}}}}))
	b.fn("h_raw_vuln", 0, []minic.Stmt{
		minic.ExprStmt{E: minic.Call{Name: "strcpy", Args: []minic.Expr{
			minic.GlobalRef("g_outbuf"), minic.GlobalRef("g_reqbuf")}}},
		minic.Return{E: i32(0)},
	})

	// Channel writers: tainted request fields leave the binary here.
	b.fn("h_set_wl", 0, xguarded("wifi_pass",
		minic.ExprStmt{E: minic.Call{Name: "nvram_set", Args: []minic.Expr{
			minic.Str("wl_key"), v("val")}}}))
	b.fn("h_set_tz", 0, xguarded("timezone",
		minic.ExprStmt{E: minic.Call{Name: "env_set", Args: []minic.Expr{
			minic.Str("TZ_OFF"), v("val")}}}))
	b.fn("h_spawn", 0, xguarded("ping_host",
		minic.ExprStmt{E: minic.Call{Name: "fw_spawn", Args: []minic.Expr{
			minic.Str("bin/nettool"), v("val")}}}))
	// Constant write: the key is written but never tainted, so readers of
	// boardnum must stay silent.
	b.fn("h_set_const", 0, []minic.Stmt{
		minic.ExprStmt{E: minic.Call{Name: "nvram_set", Args: []minic.Expr{
			minic.Str("boardnum"), minic.Str("A100")}}},
		minic.Return{E: i32(0)},
	})

	// parse_req copies the raw request into the key-value store.
	b.fn("parse_req", 2, []minic.Stmt{
		minic.Let{Name: "i", E: i32(0)},
		minic.While{Cond: minic.Cond{Op: minic.Lt, L: v("i"), R: v("p1")}, Body: []minic.Stmt{
			minic.Let{Name: "c", E: minic.LoadB(minic.Add(v("p0"), v("i")))},
			minic.If{Cond: minic.Cond{Op: minic.Eq, L: v("c"), R: i32('&')},
				Then: []minic.Stmt{minic.StoreStmt{Size: 1,
					Addr: minic.Add(minic.GlobalRef("g_kvstore"), v("i")), Val: i32(0)}},
				Else: []minic.Stmt{minic.StoreStmt{Size: 1,
					Addr: minic.Add(minic.GlobalRef("g_kvstore"), v("i")), Val: v("c")}}},
			minic.Assign{Name: "i", E: minic.Add(v("i"), i32(1))},
		}},
		minic.Return{E: i32(0)},
	})

	b.fn("main", 0, []minic.Stmt{
		minic.Let{Name: "fd", E: minic.Call{Name: "socket", Args: []minic.Expr{i32(2), i32(1), i32(0)}}},
		minic.ExprStmt{E: minic.Call{Name: "bind", Args: []minic.Expr{v("fd"), i32(0), i32(0)}}},
		minic.ExprStmt{E: minic.Call{Name: "listen", Args: []minic.Expr{v("fd"), i32(8)}}},
		minic.ExprStmt{E: minic.Call{Name: "accept", Args: []minic.Expr{v("fd"), i32(0), i32(0)}}},
		minic.Let{Name: "n", E: minic.Call{Name: "recv", Args: []minic.Expr{
			v("fd"), minic.GlobalRef("g_reqbuf"), i32(1024), i32(0)}}},
		minic.ExprStmt{E: minic.Call{Name: "parse_req", Args: []minic.Expr{
			minic.GlobalRef("g_reqbuf"), v("n")}}},
		minic.ExprStmt{E: minic.Call{Name: "h_local_vuln"}},
		minic.ExprStmt{E: minic.Call{Name: "h_local_safe"}},
		minic.ExprStmt{E: minic.Call{Name: "h_raw_vuln"}},
		minic.ExprStmt{E: minic.Call{Name: "h_set_wl"}},
		minic.ExprStmt{E: minic.Call{Name: "h_set_tz"}},
		minic.ExprStmt{E: minic.Call{Name: "h_spawn"}},
		minic.ExprStmt{E: minic.Call{Name: "h_set_const"}},
		minic.Return{E: i32(0)},
	})
	return b.p
}

// xgetterHandler builds a reader function: load a channel value, bail when
// absent, run the use statements on "val".
func xgetterHandler(b *xbuilder, name, getter string, keyArg minic.Expr, use ...minic.Stmt) {
	body := []minic.Stmt{
		minic.Let{Name: "val", E: minic.Call{Name: getter, Args: []minic.Expr{keyArg}}},
		minic.If{Cond: minic.Cond{Op: minic.Eq, L: v("val"), R: i32(0)},
			Then: []minic.Stmt{minic.Return{E: i32(0)}}},
	}
	body = append(body, use...)
	b.fn(name, 0, append(body, minic.Return{E: i32(0)}))
}

// xwifidProgram: nvram reader. No network imports, no classical sources —
// single-binary analysis has nothing to seed here.
func xwifidProgram() *minic.Program {
	b := &xbuilder{p: &minic.Program{Name: "wifid", Globals: []*minic.Global{
		{Name: "g_outbuf", Size: 256},
	}}}
	xgetterHandler(b, "w_apply", "nvram_get", minic.Str("wl_key"),
		minic.ExprStmt{E: minic.Call{Name: "system", Args: []minic.Expr{v("val")}}})
	// Second-order hop: republish the nvram value as an environment variable.
	xgetterHandler(b, "w_state", "nvram_get", minic.Str("wl_key"),
		minic.ExprStmt{E: minic.Call{Name: "env_set", Args: []minic.Expr{
			minic.Str("WL_STATE"), v("val")}}})
	// Reads a key only ever written untainted; must never alert.
	xgetterHandler(b, "w_board", "nvram_get", minic.Str("boardnum"),
		minic.ExprStmt{E: minic.Call{Name: "sprintf", Args: []minic.Expr{
			minic.GlobalRef("g_outbuf"), minic.Str("board=%s"), v("val"), i32(0)}}})
	b.fn("main", 0, []minic.Stmt{
		minic.ExprStmt{E: minic.Call{Name: "w_apply"}},
		minic.ExprStmt{E: minic.Call{Name: "w_state"}},
		minic.ExprStmt{E: minic.Call{Name: "w_board"}},
		minic.Return{E: i32(0)},
	})
	return b.p
}

// xenvdProgram: environment reader.
func xenvdProgram() *minic.Program {
	b := &xbuilder{p: &minic.Program{Name: "envd", Globals: []*minic.Global{
		{Name: "g_outbuf", Size: 256},
	}}}
	xgetterHandler(b, "e_apply", "env_get", minic.Str("TZ_OFF"),
		minic.ExprStmt{E: minic.Call{Name: "sprintf", Args: []minic.Expr{
			minic.GlobalRef("g_outbuf"), minic.Str("tz=%s"), v("val"), i32(0)}}})
	b.fn("main", 0, []minic.Stmt{
		minic.ExprStmt{E: minic.Call{Name: "e_apply"}},
		minic.Return{E: i32(0)},
	})
	return b.p
}

// xnettoolProgram: spawned helper consuming its argument vector.
func xnettoolProgram() *minic.Program {
	b := &xbuilder{p: &minic.Program{Name: "nettool", Globals: []*minic.Global{
		{Name: "g_outbuf", Size: 256},
	}}}
	xgetterHandler(b, "n_run", "fw_getarg", minic.Int(1),
		minic.ExprStmt{E: minic.Call{Name: "system", Args: []minic.Expr{v("val")}}})
	b.fn("main", 0, []minic.Stmt{
		minic.ExprStmt{E: minic.Call{Name: "n_run"}},
		minic.Return{E: i32(0)},
	})
	return b.p
}

// xstatusdProgram: reads the environment variable wifid republishes — its
// flow needs two fixpoint rounds.
func xstatusdProgram() *minic.Program {
	b := &xbuilder{p: &minic.Program{Name: "statusd", Globals: []*minic.Global{
		{Name: "g_outbuf", Size: 256},
	}}}
	xgetterHandler(b, "s_show", "env_get", minic.Str("WL_STATE"),
		minic.ExprStmt{E: minic.Call{Name: "strcpy", Args: []minic.Expr{
			minic.GlobalRef("g_outbuf"), v("val")}}})
	b.fn("main", 0, []minic.Stmt{
		minic.ExprStmt{E: minic.Call{Name: "s_show"}},
		minic.Return{E: i32(0)},
	})
	return b.p
}

// GenerateXCorpus builds a deterministic multi-binary corpus: one border
// binary (bin/httpd) publishing request fields over nvram, environment and
// spawn channels; four back-end binaries consuming them; front-end artifacts
// naming exactly the border binary's request parameters; and a ground-truth
// manifest of every planted flow. The same seed always yields the same
// bytes.
func GenerateXCorpus(seed int64) (*XCorpus, error) {
	r := rand.New(rand.NewSource(seed))
	arch := isa.ArchARM

	libcBin, err := minic.Link(LibcProgram(r), arch, nil)
	if err != nil {
		return nil, fmt.Errorf("synth: xcorpus libc: %w", err)
	}

	progs := []struct {
		path string
		prog *minic.Program
	}{
		{"bin/envd", xenvdProgram()},
		{"bin/httpd", xhttpdProgram()},
		{"bin/nettool", xnettoolProgram()},
		{"bin/statusd", xstatusdProgram()},
		{"bin/wifid", xwifidProgram()},
	}

	man := XManifest{
		Arch:       arch,
		FrontFiles: []string{"etc/webparams.conf", "www/app.js", "www/index.html"},
		Keywords:   []string{"comment", "ping_host", "timezone", "username", "wifi_pass"},
	}
	entry := map[string]uint32{} // "path/func" -> entry
	files := []firmware.File{
		{Path: "etc/webparams.conf", Data: []byte(xWebParamsConf)},
		{Path: "lib/libc.so", Data: nil}, // filled below
		{Path: "www/app.js", Data: []byte(xAppJS)},
		{Path: "www/index.html", Data: []byte(xIndexHTML)},
	}
	for _, p := range progs {
		bin, err := minic.Link(p.prog, arch, []string{"libc.so"})
		if err != nil {
			return nil, fmt.Errorf("synth: xcorpus %s: %w", p.path, err)
		}
		for _, f := range bin.Funcs {
			entry[p.path+"/"+f.Name] = f.Addr
		}
		bin.Strip()
		files = append(files, firmware.File{Path: p.path, Data: bin.Encode()})
		man.Binaries = append(man.Binaries, p.path)
	}
	libcBin.Strip()
	files[1].Data = libcBin.Encode()

	hopHTTPD := func(ch know.ChanKind, key string) XHopTruth {
		return XHopTruth{FromBinary: "bin/httpd", Chan: ch, Key: key}
	}
	flow := func(f XFlowTruth) {
		f.SinkEntry = entry[f.SinkBinary+"/"+f.SinkFunc]
		if f.SinkEntry == 0 {
			panic("synth: xcorpus flow names unknown function " + f.SinkBinary + "/" + f.SinkFunc)
		}
		man.Flows = append(man.Flows, f)
	}
	flow(XFlowTruth{Name: "local-vuln", FrontKey: "username", FrontFile: "www/index.html",
		SinkBinary: "bin/httpd", SinkFunc: "h_local_vuln", Sink: "strcpy",
		Kind: know.SinkOverflow, Vulnerable: true})
	flow(XFlowTruth{Name: "local-safe", FrontKey: "comment", FrontFile: "www/index.html",
		SinkBinary: "bin/httpd", SinkFunc: "h_local_safe", Sink: "strncpy",
		Kind: know.SinkOverflow, Vulnerable: false})
	flow(XFlowTruth{Name: "raw-vuln",
		SinkBinary: "bin/httpd", SinkFunc: "h_raw_vuln", Sink: "strcpy",
		Kind: know.SinkOverflow, Vulnerable: true})
	flow(XFlowTruth{Name: "wl-system", FrontKey: "wifi_pass", FrontFile: "www/app.js",
		Hops:       []XHopTruth{hopHTTPD(know.ChanNVRAM, "wl_key")},
		SinkBinary: "bin/wifid", SinkFunc: "w_apply", Sink: "system",
		Kind: know.SinkCommand, CrossBinary: true, Vulnerable: true})
	flow(XFlowTruth{Name: "wl-state", FrontKey: "wifi_pass", FrontFile: "www/app.js",
		Hops: []XHopTruth{hopHTTPD(know.ChanNVRAM, "wl_key"),
			{FromBinary: "bin/wifid", Chan: know.ChanEnv, Key: "WL_STATE"}},
		SinkBinary: "bin/statusd", SinkFunc: "s_show", Sink: "strcpy",
		Kind: know.SinkOverflow, CrossBinary: true, Vulnerable: true})
	flow(XFlowTruth{Name: "tz-format", FrontKey: "timezone", FrontFile: "etc/webparams.conf",
		Hops:       []XHopTruth{hopHTTPD(know.ChanEnv, "TZ_OFF")},
		SinkBinary: "bin/envd", SinkFunc: "e_apply", Sink: "sprintf",
		Kind: know.SinkOverflow, CrossBinary: true, Vulnerable: true})
	flow(XFlowTruth{Name: "spawn-exec", FrontKey: "ping_host", FrontFile: "www/app.js",
		Hops:       []XHopTruth{hopHTTPD(know.ChanSpawn, "bin/nettool")},
		SinkBinary: "bin/nettool", SinkFunc: "n_run", Sink: "system",
		Kind: know.SinkCommand, CrossBinary: true, Vulnerable: true})
	flow(XFlowTruth{Name: "benign-board",
		SinkBinary: "bin/wifid", SinkFunc: "w_board", Sink: "sprintf",
		Kind: know.SinkOverflow, CrossBinary: true, Vulnerable: false})

	return &XCorpus{Files: files, Manifest: man}, nil
}
