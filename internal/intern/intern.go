// Package intern provides a per-analysis string intern table. The pipeline
// materializes the same short strings over and over — call-site string
// constants backtracked at every caller, symbol names repeated across a
// firmware's binaries, taint object keys — and interning collapses each
// distinct value to one allocation per analysis.
//
// Interning never changes what a string contains, only which backing array
// it points at, so every output that embeds interned strings (rankings,
// cache keys, DiffReports) is byte-identical with and without a table.
package intern

import "sync"

// Table interns strings. The zero value is not usable; call NewTable. A
// Table is safe for concurrent use: analysis fan-outs share one table per
// Analyze call across all workers.
type Table struct {
	mu sync.RWMutex
	m  map[string]string
}

// NewTable returns an empty intern table.
func NewTable() *Table {
	return &Table{m: make(map[string]string, 64)}
}

// Bytes returns the canonical string equal to b. On a hit nothing is
// allocated: Go map lookups with a string(b) key are conversion-free, so
// repeated values cost a read lock and a hash. A nil table falls back to a
// plain conversion.
func (t *Table) Bytes(b []byte) string {
	if t == nil {
		return string(b)
	}
	t.mu.RLock()
	s, ok := t.m[string(b)]
	t.mu.RUnlock()
	if ok {
		return s
	}
	return t.insert(string(b))
}

func (t *Table) insert(s string) string {
	t.mu.Lock()
	defer t.mu.Unlock()
	if c, ok := t.m[s]; ok { // raced with another inserter
		return c
	}
	t.m[s] = s
	return s
}
