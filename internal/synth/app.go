package synth

import (
	"fmt"
	"math/rand"
	"sort"

	"fits/internal/minic"
)

// appKnobs parameterizes one generated network binary.
type appKnobs struct {
	Name       string
	HeapReqbuf bool // request buffer on the heap (defeats coarse CTS taint)
	RecvDepth  int  // wrapper layers between the interface call and parsing
	ITSCount   int
	Strong     int // ITS-like confounders (duplicators, token finders)
	Weak       int // simple confounders (checksums, table lookups)
	Loggers    int // error-output confounders with many callers
	Filler     int
	Handlers   map[HandlerCategory]int
	DeepExtra  int // wrapper layers added to deep-bug handlers
	// OffsetIndexed replaces keyed fetching with fixed offsets (no ITS).
	OffsetIndexed bool
	// ShimNet routes interface functions through a shim library, hiding
	// the network imports from the selection heuristic.
	ShimNet bool
}

// appResult carries the program plus the ground-truth fragments that depend
// on generated names; entry addresses are filled in after linking.
type appResult struct {
	Prog     *minic.Program
	ITSNames []string
	Handlers []HandlerTruth // Entry filled later
	// FetchVariant is the keyed-fetch body shape the ITS functions use;
	// evolution chains need it to refactor an ITS into a different shape.
	FetchVariant int
}

// Request field keys seen in device web interfaces.
var userKeys = []string{
	"username", "password", "ssid", "passphrase", "hostname", "url",
	"lang", "timezone", "email", "portfwd", "filename", "comment",
	"nickname", "domain", "ntp_server", "share_name", "dev_alias",
	"wps_pin", "ddns_user", "ddns_pass",
}

// System-data keys; fetches of these are filtered by the alert string
// filter, as in the paper's STA-ITS setup.
var SystemKeys = []string{"mac_addr", "lan_ip", "subnet_mask", "gateway", "dns_server"}

// hiddenSystemKeys are system-data fields whose names the string filter does
// not recognize; fetches of these survive filtering and remain false
// positives, the residue the paper reports after filtering.
var hiddenSystemKeys = []string{"fw_build", "board_id", "wl_country", "hw_rev", "serial_no"}

// anchorLits are the configuration strings filler code hands to anchor
// functions; real firmware passes paths, interface names, headers and MIME
// types to libc string routines all over the binary.
var anchorLits = []string{
	"admin", "guest", "wan", "lan", "dhcp", "pppoe", "wpa2-psk", "8.8.8.8",
	"/etc/passwd", "/var/run/httpd.pid", "/tmp/upload", "/proc/net/dev",
	"Content-Type", "Content-Length", "Authorization", "Cookie", "Host",
	"text/html", "application/json", "multipart/form-data", "keep-alive",
	"GET", "POST", "HTTP/1.1", "index.html", "login.cgi", "status.xml",
	"br0", "eth0", "ath0", "ra0", "usb0", "ipv6", "ntp.pool.org",
	"firmware.bin", "nvram", "reboot", "factory-reset", "syslog", "telnetd",
}

var logMessages = []string{
	"socket create failed", "bind failed", "listen failed", "accept failed",
	"read timeout", "parse error", "auth required", "session expired",
	"upload too large", "bad content length", "unsupported method",
	"config locked", "nvram write failed", "wan link down", "dhcp renew failed",
}

// appBuilder accumulates one program.
type appBuilder struct {
	r     *rand.Rand
	knobs appKnobs
	p     *minic.Program
	res   appResult

	fetchVariant int
	loggers      []string // error logger function names
	fillers      []string // filler function names (call forest leaves first)
	handlers     []string // handler function names in table order
}

func v(name string) minic.Expr { return minic.Var(name) }
func i32(x int32) minic.Expr   { return minic.Int(x) }

func (b *appBuilder) fn(name string, nparams int, body []minic.Stmt) {
	b.p.Funcs = append(b.p.Funcs, &minic.Func{Name: name, NParams: nparams, Body: body})
}

// netCall builds a call to an interface function, optionally through the
// shim library naming.
func (b *appBuilder) netCall(name string, args ...minic.Expr) minic.Expr {
	if b.knobs.ShimNet {
		name = "shim_" + name
	}
	return minic.Call{Name: name, Args: args}
}

// logCall returns a statement invoking a random error logger with a fresh
// message, or a no-op arithmetic statement when no loggers exist.
func (b *appBuilder) logCall() minic.Stmt {
	if len(b.loggers) == 0 {
		return minic.ExprStmt{E: minic.Add(i32(1), i32(2))}
	}
	lg := b.loggers[b.r.Intn(len(b.loggers))]
	msg := logMessages[b.r.Intn(len(logMessages))]
	return minic.ExprStmt{E: minic.Call{Name: lg, Args: []minic.Expr{minic.Str(msg)}}}
}

// reqStore is the expression for the parsed key-value store base address.
func (b *appBuilder) reqStore() minic.Expr {
	return minic.GlobalRef("g_kvstore")
}

// rawBuf is the expression for the raw receive buffer.
func (b *appBuilder) rawBuf() minic.Expr {
	if b.knobs.HeapReqbuf {
		return minic.LoadW(minic.GlobalRef("g_reqptr"))
	}
	return minic.GlobalRef("g_reqbuf")
}

// buildApp generates the program for one network binary.
func buildApp(r *rand.Rand, knobs appKnobs) appResult {
	b := &appBuilder{r: r, knobs: knobs, p: &minic.Program{Name: knobs.Name}}
	b.fetchVariant = r.Intn(4)
	b.globals()
	b.errorLoggers()
	b.confounders()
	b.itsFunctions()
	b.handlerFunctions()
	b.dispatchTable()
	b.recvChain()
	b.fillerForest()
	b.mainFunc()
	b.res.Prog = b.p
	b.res.FetchVariant = b.fetchVariant
	return b.res
}

func (b *appBuilder) globals() {
	g := func(gl *minic.Global) { b.p.Globals = append(b.p.Globals, gl) }
	g(&minic.Global{Name: "g_kvstore", Size: 1024})
	if b.knobs.HeapReqbuf {
		g(&minic.Global{Name: "g_reqptr", Size: 4})
	} else {
		g(&minic.Global{Name: "g_reqbuf", Size: 1024})
	}
	g(&minic.Global{Name: "g_outbuf", Size: 256})
	g(&minic.Global{Name: "g_logbuf", Size: 256})
	g(&minic.Global{Name: "g_sockfd", Size: 4})
	// g_stats sits in the data section: the parser stores request metadata
	// here, which coarse region-level taint smears over the whole section.
	g(&minic.Global{Name: "g_stats", Size: 16, Init: make([]byte, 16)})
	cfg := func(name, val string, size int) {
		init := make([]byte, size)
		copy(init, val)
		g(&minic.Global{Name: name, Size: size, Init: init})
	}
	cfg("g_cfg_mac", "00:11:22:33:44:55", 20)
	cfg("g_cfg_ip", "192.168.1.1", 16)
	cfg("g_cfg_mask", "255.255.255.0", 16)
	cfg("g_cfg_gw", "192.168.1.254", 16)
	cfg("g_version", "v2.17.4", 12)
	if b.knobs.Handlers[VulnAliased] > 0 {
		// Pointer table the aliased-flow handlers store fetched values
		// through; only samples that plant VulnAliased carry it, so the
		// rest of the corpus is byte-identical with or without the feature.
		g(&minic.Global{Name: "g_ptrtab", Size: 32})
	}
}

func (b *appBuilder) errorLoggers() {
	for i := 0; i < b.knobs.Loggers; i++ {
		name := fmt.Sprintf("log_error_%d", i)
		b.loggers = append(b.loggers, name)
		b.fn(name, 1, []minic.Stmt{
			minic.Let{Name: "n", E: minic.Call{Name: "strlen", Args: []minic.Expr{v("p0")}}},
			minic.If{Cond: minic.Cond{Op: minic.Gt, L: v("n"), R: i32(200)},
				Then: []minic.Stmt{minic.Assign{Name: "n", E: i32(200)}}},
			minic.ExprStmt{E: minic.Call{Name: "strncpy", Args: []minic.Expr{
				minic.GlobalRef("g_logbuf"), v("p0"), v("n")}}},
			minic.ExprStmt{E: minic.Call{Name: "printf", Args: []minic.Expr{
				minic.Str("[err] %s"), minic.GlobalRef("g_logbuf"), i32(0)}}},
			minic.Return{E: v("n")},
		})
	}
}

// nvramKeys are configuration-store keys; fetches of these look exactly
// like request-field fetches, which is why nvram-style accessors are the
// hardest confounders for ITS inference.
var nvramKeys = []string{
	"wan_proto", "wan_dns1", "wan_mtu", "lan_ipaddr", "lan_netmask",
	"wl0_channel", "wl0_country", "wl1_txpower", "fw_region", "boardnum",
	"qos_enable", "upnp_ttl", "ddns_provider", "ntp_zone", "led_mode",
	"vpn_mode", "ipv6_mode", "bridge_stp", "telnet_en", "log_level",
	"usb_mode", "guest_isolate", "wps_mode", "radius_port", "dmz_host",
	"wl1_channel", "wan_gateway", "lan_dhcp_start", "lan_dhcp_end",
	"fw_auto_update", "cloud_enable", "tz_offset", "igmp_snoop",
	"wl0_bw", "wl1_bw", "mac_clone", "port_trigger", "ssh_en",
	"http_port", "https_port", "remote_mgmt", "ping_wan", "sntp_server",
}

// confounders generates the ITS-like and simple non-ITS functions.
func (b *appBuilder) confounders() {
	if b.knobs.Strong > 0 {
		// Configuration store scanned by the nvram-style accessors.
		nv := make([]byte, 512)
		copy(nv, "wan_proto\x00dhcp\x00lan_ipaddr\x00192.168.0.1\x00wl0_channel\x00auto\x00")
		b.p.Globals = append(b.p.Globals, &minic.Global{Name: "g_nvram", Size: 512, Init: nv})
	}
	// Expected callers per true fetch function, used to size the
	// confounders' caller sets comparably.
	nonBenign := 0
	for cat, n := range b.knobs.Handlers {
		if cat != BenignSystemData {
			nonBenign += n
		}
	}
	perITS := nonBenign
	if b.knobs.ITSCount > 1 {
		perITS = (nonBenign + b.knobs.ITSCount - 1) / b.knobs.ITSCount
	}
	for i := 0; i < b.knobs.Strong; i++ {
		name := fmt.Sprintf("cfg_get_%d", i)
		// cfg_get(key, store, len): byte-for-byte the same keyed-scan code
		// as the true fetch functions, but over the configuration store —
		// behaviorally indistinguishable without knowing where the stored
		// data came from.
		b.fn(name, 3, keyedFetchBody(b.fetchVariant))
		// More call sites than the request fetcher, but over a smaller key
		// vocabulary: configuration keys repeat across the firmware.
		ncallers := perITS + 3 + b.r.Intn(3)
		distinct := perITS/2 + 2
		for c := 0; c < ncallers; c++ {
			callerName := fmt.Sprintf("cfg_user_%d_%d", i, c)
			key := nvramKeys[(i*31+c%distinct)%len(nvramKeys)]
			b.fn(callerName, 0, []minic.Stmt{
				minic.Let{Name: "val", E: minic.Call{Name: name, Args: []minic.Expr{
					minic.Str(key), minic.GlobalRef("g_nvram"), i32(512)}}},
				minic.If{Cond: minic.Cond{Op: minic.Eq, L: v("val"), R: i32(0)},
					Then: []minic.Stmt{b.logCall(), minic.Return{E: i32(0)}}},
				minic.Return{E: minic.Call{Name: "strlen", Args: []minic.Expr{v("val")}}},
			})
			b.fillers = append(b.fillers, callerName)
		}
	}
	for i := 0; i < b.knobs.Weak; i++ {
		name := fmt.Sprintf("util_%d", i)
		switch b.r.Intn(2) {
		case 0:
			// Checksum over a buffer.
			b.fn(name, 2, []minic.Stmt{
				minic.Let{Name: "s", E: i32(0)},
				minic.Let{Name: "i", E: i32(0)},
				minic.While{Cond: minic.Cond{Op: minic.Lt, L: v("i"), R: v("p1")}, Body: []minic.Stmt{
					minic.Assign{Name: "s", E: minic.Add(v("s"), minic.LoadB(minic.Add(v("p0"), v("i"))))},
					minic.Assign{Name: "i", E: minic.Add(v("i"), i32(1))},
				}},
				minic.Return{E: v("s")},
			})
		default:
			// Bit mixer.
			b.fn(name, 1, []minic.Stmt{
				minic.Let{Name: "x", E: minic.Bin{Op: minic.OpXor, L: v("p0"), R: i32(0x5bd1)}},
				minic.Return{E: minic.Bin{Op: minic.OpOr,
					L: minic.Bin{Op: minic.OpShl, L: v("x"), R: i32(3)},
					R: minic.Bin{Op: minic.OpShr, L: v("x"), R: i32(5)}}},
			})
		}
		b.fillers = append(b.fillers, "")
		b.fillers[len(b.fillers)-1] = name
	}
}

// keyedFetchBody builds a keyed-scan fetch function: scan the store for the
// key, allocate, copy the value out and return it (Figure 1b of the paper).
// The variant selects one of several code-structurally different
// implementations of the same behaviour — vendors write these by hand, so
// their instruction mix varies widely even though the behavioral profile
// (loops over memory, anchors on the parameters, derived return) is
// constant. This is precisely what separates behavioral from code-level
// similarity (RQ3).
func keyedFetchBody(variant int) []minic.Stmt {
	hit := func() []minic.Stmt {
		return []minic.Stmt{
			minic.Let{Name: "val", E: minic.Add(minic.Add(v("p1"), v("i")), minic.Add(v("klen"), i32(1)))},
			minic.Let{Name: "vlen", E: minic.Call{Name: "strlen", Args: []minic.Expr{v("val")}}},
			minic.Let{Name: "out", E: minic.Call{Name: "malloc", Args: []minic.Expr{minic.Add(v("vlen"), i32(1))}}},
			minic.ExprStmt{E: minic.Call{Name: "memcpy", Args: []minic.Expr{v("out"), v("val"), minic.Add(v("vlen"), i32(1))}}},
			minic.Return{E: v("out")},
		}
	}
	match := func(then []minic.Stmt) minic.Stmt {
		return minic.If{Cond: minic.Cond{Op: minic.Eq,
			L: minic.Call{Name: "strncmp", Args: []minic.Expr{v("p0"), minic.Add(v("p1"), v("i")), v("klen")}},
			R: i32(0)},
			Then: then}
	}
	switch variant % 4 {
	case 1:
		// Hash-accumulating variant: tracks a rolling checksum of the
		// scanned bytes (used elsewhere for cache validation).
		return []minic.Stmt{
			minic.Let{Name: "klen", E: minic.Call{Name: "strlen", Args: []minic.Expr{v("p0")}}},
			minic.Let{Name: "i", E: i32(0)},
			minic.Let{Name: "h", E: i32(5381)},
			minic.While{Cond: minic.Cond{Op: minic.Lt, L: v("i"), R: v("p2")}, Body: []minic.Stmt{
				minic.Let{Name: "c", E: minic.LoadB(minic.Add(v("p1"), v("i")))},
				minic.If{Cond: minic.Cond{Op: minic.Eq, L: v("c"), R: i32(0)},
					Then: []minic.Stmt{minic.Return{E: i32(0)}}},
				minic.Assign{Name: "h", E: minic.Bin{Op: minic.OpXor,
					L: minic.Add(minic.Mul(v("h"), i32(33)), v("c")),
					R: minic.Bin{Op: minic.OpShr, L: v("h"), R: i32(7)}}},
				match(hit()),
				minic.Assign{Name: "i", E: minic.Add(v("i"), i32(1))},
			}},
			minic.Return{E: i32(0)},
		}
	case 2:
		// Separator-seeking variant: hops between NUL-separated fields
		// rather than probing every byte.
		return []minic.Stmt{
			minic.Let{Name: "klen", E: minic.Call{Name: "strlen", Args: []minic.Expr{v("p0")}}},
			minic.Let{Name: "i", E: i32(0)},
			minic.While{Cond: minic.Cond{Op: minic.Lt, L: v("i"), R: v("p2")}, Body: []minic.Stmt{
				minic.If{Cond: minic.Cond{Op: minic.Eq, L: minic.LoadB(minic.Add(v("p1"), v("i"))), R: i32(0)},
					Then: []minic.Stmt{minic.Return{E: i32(0)}}},
				match(hit()),
				minic.Let{Name: "c", E: minic.LoadB(minic.Add(v("p1"), v("i")))},
				minic.While{Cond: minic.Cond{Op: minic.Ne, L: v("c"), R: i32(0)}, Body: []minic.Stmt{
					minic.Assign{Name: "i", E: minic.Add(v("i"), i32(1))},
					minic.If{Cond: minic.Cond{Op: minic.Ge, L: v("i"), R: v("p2")},
						Then: []minic.Stmt{minic.Return{E: i32(0)}}},
					minic.Assign{Name: "c", E: minic.LoadB(minic.Add(v("p1"), v("i")))},
				}},
				minic.Assign{Name: "i", E: minic.Add(v("i"), i32(1))},
			}},
			minic.Return{E: i32(0)},
		}
	case 3:
		// Masked-stride variant: realigns the cursor with bit arithmetic
		// between probes (word-aligned record layout).
		return []minic.Stmt{
			minic.Let{Name: "klen", E: minic.Call{Name: "strlen", Args: []minic.Expr{v("p0")}}},
			minic.Let{Name: "i", E: i32(0)},
			minic.While{Cond: minic.Cond{Op: minic.Lt, L: v("i"), R: v("p2")}, Body: []minic.Stmt{
				minic.If{Cond: minic.Cond{Op: minic.Eq, L: minic.LoadB(minic.Add(v("p1"), v("i"))), R: i32(0)},
					Then: []minic.Stmt{minic.Return{E: i32(0)}}},
				match(hit()),
				// Cursor advance through mask-and-merge arithmetic; the
				// net effect is i+1 but the instruction mix differs.
				minic.Assign{Name: "i", E: minic.Bin{Op: minic.OpAnd,
					L: minic.Bin{Op: minic.OpOr,
						L: minic.Add(v("i"), i32(1)),
						R: minic.Bin{Op: minic.OpAnd, L: minic.Add(v("i"), i32(1)), R: i32(0x7fff)}},
					R: i32(0xffffff)}},
			}},
			minic.Return{E: i32(0)},
		}
	default:
		// Canonical byte-scan variant.
		return []minic.Stmt{
			minic.Let{Name: "klen", E: minic.Call{Name: "strlen", Args: []minic.Expr{v("p0")}}},
			minic.Let{Name: "i", E: i32(0)},
			minic.While{Cond: minic.Cond{Op: minic.Lt, L: v("i"), R: v("p2")}, Body: []minic.Stmt{
				minic.If{Cond: minic.Cond{Op: minic.Eq, L: minic.LoadB(minic.Add(v("p1"), v("i"))), R: i32(0)},
					Then: []minic.Stmt{minic.Return{E: i32(0)}}},
				match(hit()),
				minic.Assign{Name: "i", E: minic.Add(v("i"), i32(1))},
			}},
			minic.Return{E: i32(0)},
		}
	}
}

// itsFunctions generates the keyed fetch functions — the planted ITSs.
func (b *appBuilder) itsFunctions() {
	if b.knobs.OffsetIndexed {
		return
	}
	for i := 0; i < b.knobs.ITSCount; i++ {
		name := fmt.Sprintf("get_field_%d", i)
		b.res.ITSNames = append(b.res.ITSNames, name)
		b.fn(name, 3, keyedFetchBody(b.fetchVariant))
	}
}

// sinkStmt builds a call to the chosen sink with val in a dangerous
// position.
func sinkStmt(sink string, val minic.Expr) minic.Stmt {
	switch sink {
	case "sprintf":
		return minic.ExprStmt{E: minic.Call{Name: "sprintf", Args: []minic.Expr{
			minic.GlobalRef("g_outbuf"), minic.Str("resp=%s"), val, i32(0)}}}
	case "strcpy":
		return minic.ExprStmt{E: minic.Call{Name: "strcpy", Args: []minic.Expr{
			minic.GlobalRef("g_outbuf"), val}}}
	case "strcat":
		return minic.ExprStmt{E: minic.Call{Name: "strcat", Args: []minic.Expr{
			minic.GlobalRef("g_outbuf"), val}}}
	case "strncpy":
		return minic.ExprStmt{E: minic.Call{Name: "strncpy", Args: []minic.Expr{
			minic.GlobalRef("g_outbuf"), val, i32(512)}}}
	case "system":
		return minic.ExprStmt{E: minic.Call{Name: "system", Args: []minic.Expr{val}}}
	case "popen":
		return minic.ExprStmt{E: minic.Call{Name: "popen", Args: []minic.Expr{val, minic.Str("r")}}}
	case "execve":
		return minic.ExprStmt{E: minic.Call{Name: "execve", Args: []minic.Expr{val, i32(0), i32(0)}}}
	}
	return minic.ExprStmt{E: minic.Call{Name: "sprintf", Args: []minic.Expr{
		minic.GlobalRef("g_outbuf"), minic.Str("%s"), val, i32(0)}}}
}

var overflowSinks = []string{"sprintf", "strcpy", "strcat", "strncpy"}
var commandSinks = []string{"system", "popen", "execve"}

// fetchExpr builds the handler's fetch of a request field.
func (b *appBuilder) fetchExpr(key string) minic.Expr {
	if b.knobs.OffsetIndexed {
		// Fixed-offset indexing: no intermediate fetch function exists.
		off := int32(16 * (1 + b.r.Intn(32)))
		return minic.Add(b.reqStore(), i32(off))
	}
	its := b.res.ITSNames[b.r.Intn(len(b.res.ITSNames))]
	return minic.Call{Name: its, Args: []minic.Expr{minic.Str(key), b.reqStore(), i32(1024)}}
}

func (b *appBuilder) handlerFunctions() {
	kinds := make([]HandlerCategory, 0, 16)
	for cat, n := range b.knobs.Handlers {
		for i := 0; i < n; i++ {
			kinds = append(kinds, cat)
		}
	}
	// Deterministic order before the seeded shuffle: map iteration order
	// must not leak into output.
	sort.Slice(kinds, func(i, j int) bool { return kinds[i] < kinds[j] })
	b.r.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })

	usedKeys := map[string]bool{}
	freshKey := func(pool []string) string {
		for tries := 0; tries < 64; tries++ {
			k := pool[b.r.Intn(len(pool))]
			if !usedKeys[k] {
				usedKeys[k] = true
				return k
			}
		}
		k := fmt.Sprintf("field_%d", b.r.Intn(1000))
		usedKeys[k] = true
		return k
	}

	for idx, cat := range kinds {
		name := fmt.Sprintf("handle_%02d", idx)
		truth := HandlerTruth{Binary: b.knobs.Name, FuncName: name, Category: cat}
		var key string
		switch cat {
		case SystemKeyFetch:
			if b.r.Intn(3) == 0 {
				key = hiddenSystemKeys[b.r.Intn(len(hiddenSystemKeys))]
			} else {
				key = SystemKeys[b.r.Intn(len(SystemKeys))]
				truth.Filterable = true
			}
		case BenignSystemData, VulnRaw, SafeRaw:
			// no field fetch
		default:
			key = freshKey(userKeys)
		}
		truth.Key = key

		sink := overflowSinks[b.r.Intn(len(overflowSinks))]
		if cat != VulnRaw && cat != SafeRaw && b.r.Intn(4) == 0 {
			sink = commandSinks[b.r.Intn(len(commandSinks))]
		}
		truth.Sink = sink

		wrappers := 0
		if cat == VulnDeep {
			wrappers = 1 + b.knobs.DeepExtra + b.r.Intn(2)
		}
		truth.ITSDepth = wrappers + 1
		truth.CTSDepth = b.knobs.RecvDepth + 3 + wrappers

		// Innermost wrapper performs the sink call; outer wrappers pass
		// the value through.
		sinkFn := name
		if wrappers > 0 {
			for w := wrappers - 1; w >= 0; w-- {
				wname := fmt.Sprintf("%s_w%d", name, w)
				var body []minic.Stmt
				if w == wrappers-1 {
					body = []minic.Stmt{sinkStmt(sink, v("p0")), minic.Return{E: i32(0)}}
				} else {
					body = []minic.Stmt{
						b.logCall(),
						minic.Return{E: minic.Call{Name: fmt.Sprintf("%s_w%d", name, w+1), Args: []minic.Expr{v("p0")}}},
					}
				}
				b.fn(wname, 1, body)
			}
			sinkFn = name + "_w0"
		}

		truth.SinkFuncName = name
		if wrappers > 0 {
			truth.SinkFuncName = fmt.Sprintf("%s_w%d", name, wrappers-1)
		}

		var body []minic.Stmt
		switch cat {
		case VulnRaw:
			body = []minic.Stmt{
				sinkStmt(sink, b.rawBuf()),
				minic.Return{E: i32(0)},
			}
		case SafeRaw:
			body = []minic.Stmt{
				minic.Let{Name: "n", E: minic.Call{Name: "strlen", Args: []minic.Expr{b.rawBuf()}}},
				minic.If{Cond: minic.Cond{Op: minic.Lt, L: v("n"), R: i32(64)},
					Then: []minic.Stmt{sinkStmt(sink, b.rawBuf())}},
				minic.Return{E: i32(0)},
			}
		case BenignSystemData:
			cfgs := []string{"g_cfg_mac", "g_cfg_ip", "g_cfg_mask", "g_cfg_gw"}
			body = []minic.Stmt{
				sinkStmt(sink, minic.GlobalRef(cfgs[b.r.Intn(len(cfgs))])),
				minic.Return{E: i32(0)},
			}
		case SafeSanitized:
			body = []minic.Stmt{
				minic.Let{Name: "val", E: b.fetchExpr(key)},
				minic.If{Cond: minic.Cond{Op: minic.Eq, L: v("val"), R: i32(0)},
					Then: []minic.Stmt{minic.Return{E: i32(0)}}},
				minic.Let{Name: "n", E: minic.Call{Name: "strlen", Args: []minic.Expr{v("val")}}},
				minic.If{Cond: minic.Cond{Op: minic.Lt, L: v("n"), R: i32(32)},
					Then: []minic.Stmt{sinkStmt(sink, v("val"))}},
				minic.Return{E: i32(0)},
			}
		case SafeInfeasible:
			// The sink is guarded by contradictory bounds on an untainted
			// unknown (the firmware version string's length is both < 4 and
			// >= 100): statically reachable, semantically dead. A
			// path-insensitive engine alerts; the feasibility pass refutes.
			body = []minic.Stmt{
				minic.Let{Name: "val", E: b.fetchExpr(key)},
				minic.If{Cond: minic.Cond{Op: minic.Eq, L: v("val"), R: i32(0)},
					Then: []minic.Stmt{minic.Return{E: i32(0)}}},
				minic.Let{Name: "mode", E: minic.Call{Name: "strlen", Args: []minic.Expr{minic.GlobalRef("g_version")}}},
				minic.If{Cond: minic.Cond{Op: minic.Lt, L: v("mode"), R: i32(4)},
					Then: []minic.Stmt{
						minic.If{Cond: minic.Cond{Op: minic.Ge, L: v("mode"), R: i32(100)},
							Then: []minic.Stmt{sinkStmt(sink, v("val"))}},
					}},
				minic.Return{E: i32(0)},
			}
		case VulnAliased:
			// The fetched value travels through a pointer-table slot whose
			// index is unknown: the store and load addresses are symbolic,
			// so value-level propagation loses the flow unless the alias
			// pass connects the table's abstract location.
			body = []minic.Stmt{
				minic.Let{Name: "val", E: b.fetchExpr(key)},
				minic.If{Cond: minic.Cond{Op: minic.Eq, L: v("val"), R: i32(0)},
					Then: []minic.Stmt{minic.Return{E: i32(0)}}},
				minic.Let{Name: "slot", E: minic.Bin{Op: minic.OpAnd,
					L: minic.Call{Name: "strlen", Args: []minic.Expr{minic.GlobalRef("g_version")}},
					R: i32(3)}},
				minic.StoreStmt{Size: 4,
					Addr: minic.Add(minic.GlobalRef("g_ptrtab"), minic.Mul(v("slot"), i32(4))),
					Val:  v("val")},
				minic.Let{Name: "p", E: minic.LoadW(
					minic.Add(minic.GlobalRef("g_ptrtab"), minic.Mul(v("slot"), i32(4))))},
				sinkStmt(sink, v("p")),
				minic.Return{E: i32(0)},
			}
		default: // VulnShallow, VulnDeep, SystemKeyFetch
			use := sinkStmt(sink, v("val"))
			if wrappers > 0 {
				use = minic.ExprStmt{E: minic.Call{Name: sinkFn, Args: []minic.Expr{v("val")}}}
			}
			body = []minic.Stmt{
				minic.Let{Name: "val", E: b.fetchExpr(key)},
				minic.If{Cond: minic.Cond{Op: minic.Eq, L: v("val"), R: i32(0)},
					Then: []minic.Stmt{minic.Return{E: i32(0)}}},
				use,
				minic.Return{E: i32(0)},
			}
		}
		b.fn(name, 0, body)
		b.handlers = append(b.handlers, name)
		b.res.Handlers = append(b.res.Handlers, truth)
	}
}

// dispatchTable emits the handler pointer table and the indirect dispatcher.
func (b *appBuilder) dispatchTable() {
	n := len(b.handlers)
	if n == 0 {
		return
	}
	// Pad to a power of two so the index can be masked.
	size := 1
	for size < n {
		size *= 2
	}
	g := &minic.Global{Name: "g_handlers", Size: 4 * size, Init: make([]byte, 4*size)}
	for i := 0; i < size; i++ {
		g.Ptrs = append(g.Ptrs, minic.PtrInit{Off: 4 * i, FuncName: b.handlers[i%n]})
	}
	b.p.Globals = append(b.p.Globals, g)
	b.fn("dispatch_req", 1, []minic.Stmt{
		minic.ExprStmt{E: minic.CallInd{Table: "g_handlers",
			Index: minic.Bin{Op: minic.OpAnd, L: v("p0"), R: i32(int32(size - 1))}}},
		minic.Return{E: i32(0)},
	})
	// A couple of handlers also have direct callers (route shortcuts),
	// giving caller-count variance.
	for i := 0; i < n && i < 2; i++ {
		rname := fmt.Sprintf("route_fast_%d", i)
		b.fn(rname, 0, []minic.Stmt{
			minic.ExprStmt{E: minic.Call{Name: b.handlers[b.r.Intn(n)]}},
			minic.Return{E: i32(0)},
		})
		b.fillers = append(b.fillers, rname)
	}
}

// recvChain emits the interface wrappers and the request parser.
func (b *appBuilder) recvChain() {
	// Innermost wrapper invokes the interface function.
	b.fn("io_read_0", 2, []minic.Stmt{
		minic.Return{E: b.netCall("recv", minic.LoadW(minic.GlobalRef("g_sockfd")), v("p0"), v("p1"), i32(0))},
	})
	for i := 1; i < b.knobs.RecvDepth; i++ {
		prev := fmt.Sprintf("io_read_%d", i-1)
		body := []minic.Stmt{
			minic.Let{Name: "n", E: minic.Call{Name: prev, Args: []minic.Expr{v("p0"), v("p1")}}},
		}
		if b.r.Intn(2) == 0 {
			body = append(body, minic.If{Cond: minic.Cond{Op: minic.Lt, L: v("n"), R: i32(0)},
				Then: []minic.Stmt{b.logCall(), minic.Return{E: i32(-1)}}})
		}
		body = append(body, minic.Return{E: v("n")})
		b.fn(fmt.Sprintf("io_read_%d", i), 2, body)
	}

	// route_method(m) classifies the request method through a jump table —
	// the switch-dispatch pattern whose recovery needs jump-table
	// resolution.
	b.fn("route_method", 1, []minic.Stmt{
		minic.Let{Name: "r", E: i32(0)},
		minic.Switch{
			E: v("p0"),
			Cases: [][]minic.Stmt{
				{minic.Assign{Name: "r", E: i32(1)}},                     // GET
				{minic.Assign{Name: "r", E: i32(2)}},                     // POST
				{b.logCall(), minic.Assign{Name: "r", E: i32(3)}},        // HEAD
				{minic.Assign{Name: "r", E: minic.Add(v("p0"), i32(4))}}, // OPTIONS
			},
			Default: []minic.Stmt{b.logCall(), minic.Assign{Name: "r", E: i32(-1)}},
		},
		minic.Return{E: v("r")},
	})

	// parse_req(buf, n): method routing and format check, then copy fields
	// into the store and record metadata in the data section.
	b.fn("parse_req", 2, []minic.Stmt{
		minic.ExprStmt{E: minic.Call{Name: "route_method", Args: []minic.Expr{
			minic.Bin{Op: minic.OpAnd, L: minic.LoadB(v("p0")), R: i32(3)}}}},
		minic.If{Cond: minic.Cond{Op: minic.Lt, L: v("p1"), R: i32(4)},
			Then: []minic.Stmt{b.logCall(), minic.Return{E: i32(-1)}}},
		minic.StoreStmt{Size: 4, Addr: minic.GlobalRef("g_stats"), Val: v("p1")},
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

	// Server loop: socket/bind/listen/accept, then read + parse + dispatch.
	top := fmt.Sprintf("io_read_%d", b.knobs.RecvDepth-1)
	setup := []minic.Stmt{
		minic.Let{Name: "fd", E: b.netCall("socket", i32(2), i32(1), i32(0))},
		minic.StoreStmt{Size: 4, Addr: minic.GlobalRef("g_sockfd"), Val: v("fd")},
		minic.ExprStmt{E: b.netCall("bind", v("fd"), i32(0), i32(0))},
		minic.ExprStmt{E: b.netCall("listen", v("fd"), i32(8))},
	}
	if b.knobs.HeapReqbuf {
		setup = append(setup, minic.StoreStmt{Size: 4, Addr: minic.GlobalRef("g_reqptr"),
			Val: minic.Call{Name: "malloc", Args: []minic.Expr{i32(1024)}}})
	}
	loop := minic.While{Cond: minic.Cond{Op: minic.Ge, L: i32(1), R: i32(0)}, Body: []minic.Stmt{
		minic.ExprStmt{E: b.netCall("accept", v("fd"), i32(0), i32(0))},
		minic.Let{Name: "n", E: minic.Call{Name: top, Args: []minic.Expr{b.rawBuf(), i32(1024)}}},
		minic.If{Cond: minic.Cond{Op: minic.Gt, L: v("n"), R: i32(0)}, Then: []minic.Stmt{
			minic.ExprStmt{E: minic.Call{Name: "parse_req", Args: []minic.Expr{b.rawBuf(), v("n")}}},
			minic.ExprStmt{E: minic.Call{Name: "dispatch_req", Args: []minic.Expr{v("n")}}},
		}, Else: []minic.Stmt{b.logCall()}},
	}}
	body := append(setup, loop, minic.Return{E: i32(0)})
	b.fn("serve_forever", 0, body)
}

// fillerForest emits arithmetic and utility filler functions forming a call
// forest; later fillers call earlier ones.
func (b *appBuilder) fillerForest() {
	for i := 0; i < b.knobs.Filler; i++ {
		name := fmt.Sprintf("sub_fn_%03d", i)
		var body []minic.Stmt
		switch b.r.Intn(8) {
		case 5, 6: // string handling over configuration data
			anchor := []string{"strlen", "strcmp", "strcpy", "memcpy", "strchr", "strstr"}[b.r.Intn(6)]
			var call minic.Expr
			lit := minic.Str(anchorLits[b.r.Intn(len(anchorLits))])
			switch anchor {
			case "strlen":
				call = minic.Call{Name: anchor, Args: []minic.Expr{lit}}
			case "memcpy":
				call = minic.Call{Name: anchor, Args: []minic.Expr{minic.GlobalRef("g_outbuf"), lit, i32(4)}}
			case "strcpy":
				call = minic.Call{Name: anchor, Args: []minic.Expr{minic.GlobalRef("g_outbuf"), lit}}
			case "strchr":
				call = minic.Call{Name: anchor, Args: []minic.Expr{lit, i32('.')}}
			default:
				call = minic.Call{Name: anchor, Args: []minic.Expr{minic.GlobalRef("g_version"), lit}}
			}
			body = []minic.Stmt{
				minic.Let{Name: "x", E: call},
				minic.Return{E: v("x")},
			}
		case 7: // formats a status line (sink usage on constant data)
			body = []minic.Stmt{
				minic.ExprStmt{E: minic.Call{Name: "snprintf", Args: []minic.Expr{
					minic.GlobalRef("g_outbuf"), i32(64), minic.Str("up %d"), v("p0")}}},
				minic.Return{E: i32(0)},
			}
		case 0: // arithmetic chain
			body = []minic.Stmt{
				minic.Let{Name: "x", E: minic.Mul(v("p0"), i32(int32(2+b.r.Intn(7))))},
				minic.Return{E: minic.Add(v("x"), i32(int32(b.r.Intn(64))))},
			}
		case 1: // calls a previous filler
			callee := name
			if len(b.fillers) > 0 {
				callee = b.fillers[b.r.Intn(len(b.fillers))]
			}
			arity := b.fillerArity(callee)
			args := make([]minic.Expr, arity)
			for j := range args {
				args[j] = i32(int32(b.r.Intn(100)))
			}
			body = []minic.Stmt{
				minic.Let{Name: "x", E: minic.Call{Name: callee, Args: args}},
				minic.Return{E: minic.Add(v("x"), v("p0"))},
			}
		case 2: // small loop over an immediate bound
			bound := int32(4 + b.r.Intn(12))
			body = []minic.Stmt{
				minic.Let{Name: "s", E: i32(0)},
				minic.Let{Name: "i", E: i32(0)},
				minic.While{Cond: minic.Cond{Op: minic.Lt, L: v("i"), R: i32(bound)}, Body: []minic.Stmt{
					minic.Assign{Name: "s", E: minic.Add(v("s"), v("i"))},
					minic.Assign{Name: "i", E: minic.Add(v("i"), i32(1))},
				}},
				minic.Return{E: v("s")},
			}
		case 3: // logs an error, sometimes via a state switch
			if b.r.Intn(3) == 0 {
				body = []minic.Stmt{
					minic.Let{Name: "r", E: i32(0)},
					minic.Switch{
						E: minic.Bin{Op: minic.OpAnd, L: v("p0"), R: i32(1)},
						Cases: [][]minic.Stmt{
							{minic.Assign{Name: "r", E: i32(1)}},
							{b.logCall(), minic.Assign{Name: "r", E: i32(2)}},
						},
						Default: []minic.Stmt{minic.Assign{Name: "r", E: i32(3)}},
					},
					minic.Return{E: v("r")},
				}
			} else {
				body = []minic.Stmt{
					b.logCall(),
					minic.Return{E: v("p0")},
				}
			}
		default: // compares a config string
			lits := []string{"on", "off", "auto", "wpa2", "bridge", "router"}
			body = []minic.Stmt{
				minic.Return{E: minic.Call{Name: "strcmp", Args: []minic.Expr{
					minic.GlobalRef("g_version"), minic.Str(lits[b.r.Intn(len(lits))])}}},
			}
		}
		b.fn(name, 1, body)
		b.fillers = append(b.fillers, name)
	}
}

// fillerArity looks up a generated function's parameter count.
func (b *appBuilder) fillerArity(name string) int {
	for _, f := range b.p.Funcs {
		if f.Name == name {
			return f.NParams
		}
	}
	return 1
}

func (b *appBuilder) mainFunc() {
	var body []minic.Stmt
	// Exercise a sample of fillers so most code is reachable from main.
	for i := 0; i < len(b.fillers); i += 3 {
		arity := b.fillerArity(b.fillers[i])
		args := make([]minic.Expr, arity)
		for j := range args {
			args[j] = i32(int32(i + j))
		}
		body = append(body, minic.ExprStmt{E: minic.Call{Name: b.fillers[i], Args: args}})
	}
	body = append(body,
		minic.ExprStmt{E: minic.Call{Name: "serve_forever"}},
		minic.Return{E: i32(0)},
	)
	b.fn("main", 0, body)
}
