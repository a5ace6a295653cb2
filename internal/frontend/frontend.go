// Package frontend extracts candidate parameter keywords from firmware
// front-end artifacts: HTML form fields, JavaScript request parameters and
// configuration key files. Shared keywords between these artifacts and the
// string constants of back-end binaries seed the corpus-level taint
// analysis at border binaries, the SaTC-style bridge from the web surface
// to compiled code.
//
// The parsers are deliberately structural scanners, not grammars: firmware
// web roots are full of truncated, hand-edited and template-mangled files,
// so extraction must never fail — malformed input yields fewer keywords,
// never an error or a panic. Every keyword carries its source location
// (1-based line and column of the name's first byte) for provenance
// reporting.
package frontend

import "sort"

// Keyword is one candidate parameter name found in a front-end artifact.
type Keyword struct {
	Name string
	File string
	// Line and Col locate the first byte of the name, 1-based. They always
	// point inside the file's bytes.
	Line int
	Col  int
}

// maxKeywordLen bounds accepted names; longer matches are noise (base64
// blobs, minified identifiers glued together).
const maxKeywordLen = 64

// Extract scans one artifact, dispatching on the path's extension. Files
// that are not front-end artifacts yield nil. The result is sorted by
// (Name, Line, Col) and deduplicated; it is empty, never nil, for
// recognized extensions with no keywords.
func Extract(path string, data []byte) []Keyword {
	var kws []Keyword
	switch ext(path) {
	case "html", "htm":
		kws = scanHTML(path, data)
	case "js":
		kws = scanJS(path, data)
	case "conf", "cfg":
		kws = scanConfig(path, data)
	default:
		return nil
	}
	return dedupe(kws)
}

func ext(path string) string {
	dot := -1
	for i := len(path) - 1; i >= 0; i-- {
		if path[i] == '/' {
			break
		}
		if path[i] == '.' {
			dot = i
			break
		}
	}
	if dot < 0 {
		return ""
	}
	e := path[dot+1:]
	b := make([]byte, len(e))
	for i := 0; i < len(e); i++ {
		c := e[i]
		if c >= 'A' && c <= 'Z' {
			c += 'a' - 'A'
		}
		b[i] = c
	}
	return string(b)
}

func dedupe(kws []Keyword) []Keyword {
	sort.Slice(kws, func(i, j int) bool {
		a, b := kws[i], kws[j]
		if a.Name != b.Name {
			return a.Name < b.Name
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Col < b.Col
	})
	out := kws[:0]
	for i, k := range kws {
		if i > 0 && k == kws[i-1] {
			continue
		}
		out = append(out, k)
	}
	if out == nil {
		out = []Keyword{}
	}
	return out
}

// lineIndex precomputes newline offsets so locations are O(log n) per
// keyword.
type lineIndex struct {
	starts []int // byte offset of each line's first byte
}

func newLineIndex(data []byte) *lineIndex {
	li := &lineIndex{starts: []int{0}}
	for i, c := range data {
		if c == '\n' {
			li.starts = append(li.starts, i+1)
		}
	}
	return li
}

// at converts a byte offset into a 1-based (line, col) pair.
func (li *lineIndex) at(off int) (line, col int) {
	i := sort.Search(len(li.starts), func(i int) bool { return li.starts[i] > off }) - 1
	if i < 0 {
		i = 0
	}
	return i + 1, off - li.starts[i] + 1
}

// identAt reads a parameter identifier starting at off: [A-Za-z_] then
// [A-Za-z0-9_.-]*. Returns "" when off does not start one.
func identAt(data []byte, off int) string {
	if off >= len(data) || !identStart(data[off]) {
		return ""
	}
	end := off
	for end < len(data) && identByte(data[end]) {
		end++
	}
	if end-off > maxKeywordLen {
		return ""
	}
	return string(data[off:end])
}

func identStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func identByte(c byte) bool {
	return identStart(c) || c == '.' || c == '-' || (c >= '0' && c <= '9')
}
