// Package know is the knowledge base of well-known library functions shared
// by every stage: anchor functions (memory-operation libc routines used as
// behavioral references), classical taint sources (interface functions that
// receive user input), and sinks (functions whose misuse yields buffer
// overflows or command hijacking). All are matched by dynamic-symbol name,
// the only name information that survives stripping.
package know

// Anchors maps anchor function names to their arity. The set follows the
// paper's definition: standard library functions that read memory, derive
// new data and return it (Figure 2 shows strcpy, memcmp, strstr).
var Anchors = map[string]int{
	"strcpy":  2,
	"strncpy": 3,
	"strcat":  2,
	"strncat": 3,
	"strcmp":  2,
	"strncmp": 3,
	"strstr":  2,
	"strchr":  2,
	"strlen":  1,
	"memcpy":  3,
	"memmove": 3,
	"memcmp":  3,
	"memchr":  3,
}

// SourceSpec describes how a classical taint source produces user input.
type SourceSpec struct {
	Arity         int
	TaintsReturn  bool  // the return value carries user input (e.g. getenv)
	TaintedParams []int // parameter indices of output buffers (e.g. recv's buf)
}

// Sources are the classical taint sources (CTSs): interface library
// functions that receive user data.
var Sources = map[string]SourceSpec{
	"recv":     {Arity: 4, TaintedParams: []int{1}},
	"recvfrom": {Arity: 4, TaintedParams: []int{1}},
	"read":     {Arity: 3, TaintedParams: []int{1}},
	"fread":    {Arity: 4, TaintedParams: []int{0}},
	"fgets":    {Arity: 3, TaintedParams: []int{0}},
	"gets":     {Arity: 1, TaintedParams: []int{0}},
	"getenv":   {Arity: 1, TaintsReturn: true},
	"BIO_read": {Arity: 3, TaintedParams: []int{1}},
}

// SinkKind distinguishes the vulnerability classes detected, plus the
// channel-write pseudo-sink used by the corpus-level cross-binary analysis.
type SinkKind uint8

// Sink kinds.
const (
	SinkOverflow SinkKind = iota
	SinkCommand
	// SinkChannelWrite is not a vulnerability: it marks tainted data
	// reaching a cross-binary channel setter (nvram_set-style). The corpus
	// fixpoint joins these writes to getter call sites in other binaries;
	// single-binary reports never contain them.
	SinkChannelWrite
)

func (k SinkKind) String() string {
	switch k {
	case SinkCommand:
		return "command-hijack"
	case SinkChannelWrite:
		return "channel-write"
	}
	return "buffer-overflow"
}

// SinkSpec describes a risky library function.
type SinkSpec struct {
	Kind SinkKind
	// DangerousParams are the parameter indices where unsanitized user
	// data makes the call exploitable (the copied source, the format
	// arguments, the command string).
	DangerousParams []int
}

// Sinks are the risky library functions, following the paper's section 4.3:
// overflow-prone copies and formatters, and command executors.
var Sinks = map[string]SinkSpec{
	"strcpy":  {Kind: SinkOverflow, DangerousParams: []int{1}},
	"strncpy": {Kind: SinkOverflow, DangerousParams: []int{1}},
	"strcat":  {Kind: SinkOverflow, DangerousParams: []int{1}},
	"strncat": {Kind: SinkOverflow, DangerousParams: []int{1}},
	"sprintf": {Kind: SinkOverflow, DangerousParams: []int{1, 2, 3}},
	"system":  {Kind: SinkCommand, DangerousParams: []int{0}},
	"execve":  {Kind: SinkCommand, DangerousParams: []int{0, 1}},
	"popen":   {Kind: SinkCommand, DangerousParams: []int{0}},
}

// IsSink reports whether name is a sink.
func IsSink(name string) bool {
	_, ok := Sinks[name]
	return ok
}

// ChanKind classifies the cross-binary communication channels firmware
// binaries share state through: the nvram-like configuration store, the
// process environment, and spawned-helper argument vectors (the three
// channel families SaTC/SinkTaint track across binaries).
type ChanKind uint8

// Channel kinds.
const (
	ChanNVRAM ChanKind = iota
	ChanEnv
	ChanSpawn
)

func (k ChanKind) String() string {
	switch k {
	case ChanEnv:
		return "env"
	case ChanSpawn:
		return "spawn"
	}
	return "nvram"
}

// ChannelSpec describes one accessor of a cross-binary channel.
type ChannelSpec struct {
	Chan  ChanKind
	Arity int
	// KeyParam is the parameter index carrying the channel key string. A
	// negative index means the accessor is keyless and the key is implicit:
	// a spawned helper's argv getter is keyed by the helper's own
	// filesystem path.
	KeyParam int
	// ValParam (setters only) is the parameter index carrying the written
	// value.
	ValParam int
	// TaintsReturn (getters only): the fetched channel data leaves via the
	// return register.
	TaintsReturn bool
}

// ChannelSetters are the library functions that publish data onto a
// cross-binary channel. Tainted values reaching their ValParam become
// visible to every binary reading the same channel key.
var ChannelSetters = map[string]ChannelSpec{
	"nvram_set": {Chan: ChanNVRAM, Arity: 2, KeyParam: 0, ValParam: 1},
	"env_set":   {Chan: ChanEnv, Arity: 2, KeyParam: 0, ValParam: 1},
	// fw_spawn(path, arg) hands arg to the helper binary at path; the
	// helper path is the channel key.
	"fw_spawn": {Chan: ChanSpawn, Arity: 2, KeyParam: 0, ValParam: 1},
}

// ChannelGetters are the library functions that read data off a
// cross-binary channel; their return value carries whatever the writing
// binary stored under the key.
var ChannelGetters = map[string]ChannelSpec{
	"nvram_get": {Chan: ChanNVRAM, Arity: 1, KeyParam: 0, TaintsReturn: true},
	"env_get":   {Chan: ChanEnv, Arity: 1, KeyParam: 0, TaintsReturn: true},
	"fw_getarg": {Chan: ChanSpawn, Arity: 1, KeyParam: -1, TaintsReturn: true},
}

// NetworkImports are the interface functions whose presence marks a binary
// as exporting network services (the PIE-style selection heuristic of the
// pre-processing stage).
var NetworkImports = map[string]bool{
	"socket":   true,
	"bind":     true,
	"listen":   true,
	"accept":   true,
	"recv":     true,
	"recvfrom": true,
	"BIO_read": true,
}
