package ir

// EveryOpcode exposes everyOpcode to the external semantics fuzz test.
var EveryOpcode = everyOpcode
