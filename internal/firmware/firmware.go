// Package firmware implements the firmware image format of the synthetic
// corpus: a packed filesystem of binaries and configuration files, optionally
// wrapped in a vendor encoding layer, preceded by arbitrary bootloader bytes.
//
// Unpacking mirrors the paper's pre-processing stage: the image is carved by
// scanning for magic bytes anywhere in the byte stream (as Binwalk does),
// vendor encodings are recognized by their header magic and decrypted with
// keys derived from the header, and the filesystem is then parsed.
package firmware

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sort"
)

// Magics for the filesystem container and the two vendor encoding wrappers.
var (
	MagicFS     = []byte("FWIM1")
	MagicXOR    = []byte("FWXR1")
	MagicStream = []byte("FWST1")
)

// Unpacking errors. ErrCorrupt is the root of every malformed-image
// error: ErrNoImage, ErrChecksum, and the binimg decode errors all wrap
// it, so one errors.Is(err, firmware.ErrCorrupt) tells any caller —
// notably fitsd, which maps it to HTTP 422 — that the input itself is
// bad and retrying the same bytes can never succeed.
var (
	ErrCorrupt  = errors.New("firmware: corrupt image")
	ErrNoImage  = fmt.Errorf("%w: no filesystem image found", ErrCorrupt)
	ErrChecksum = fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
)

// Scheme selects the vendor encoding applied around the filesystem.
type Scheme uint8

// Encoding schemes. SchemeXOR is a rolling XOR whose seed byte sits in the
// wrapper header; SchemeStream is a keystream cipher whose 32-bit key is
// stored obfuscated in the header — both patterns appear in real vendor
// firmware and both are recoverable from the image alone.
const (
	SchemeNone Scheme = iota
	SchemeXOR
	SchemeStream
)

func (s Scheme) String() string {
	switch s {
	case SchemeNone:
		return "none"
	case SchemeXOR:
		return "xor"
	case SchemeStream:
		return "stream"
	default:
		return fmt.Sprintf("scheme(%d)", uint8(s))
	}
}

// File is one entry of the firmware filesystem.
type File struct {
	Path string
	Data []byte
}

// Image is an unpacked firmware filesystem with its identity header.
type Image struct {
	Vendor  string
	Product string
	Version string
	Files   []File
}

// Lookup returns the file at path.
func (im *Image) Lookup(path string) (File, bool) {
	for _, f := range im.Files {
		if f.Path == path {
			return f, true
		}
	}
	return File{}, false
}

// PackOptions controls image serialization.
type PackOptions struct {
	Scheme  Scheme
	Key     uint32 // encryption key material; ignored for SchemeNone
	Padding int    // bootloader-style junk bytes before the image
	PadSeed byte   // deterministic padding content
}

// encodeFS serializes the filesystem with a trailing CRC.
func (im *Image) encodeFS() []byte {
	var buf bytes.Buffer
	buf.Write(MagicFS)
	wstr := func(s string) {
		var n [4]byte
		binary.LittleEndian.PutUint32(n[:], uint32(len(s)))
		buf.Write(n[:])
		buf.WriteString(s)
	}
	wstr(im.Vendor)
	wstr(im.Product)
	wstr(im.Version)
	var n [4]byte
	binary.LittleEndian.PutUint32(n[:], uint32(len(im.Files)))
	buf.Write(n[:])
	for _, f := range im.Files {
		wstr(f.Path)
		binary.LittleEndian.PutUint32(n[:], uint32(len(f.Data)))
		buf.Write(n[:])
		buf.Write(f.Data)
	}
	sum := crc32.ChecksumIEEE(buf.Bytes())
	binary.LittleEndian.PutUint32(n[:], sum)
	buf.Write(n[:])
	return buf.Bytes()
}

// Pack serializes the image, applies the vendor encoding, and prepends
// padding bytes so that unpackers must carve rather than parse at offset 0.
func (im *Image) Pack(opts PackOptions) []byte {
	payload := im.encodeFS()
	var body []byte
	switch opts.Scheme {
	case SchemeXOR:
		body = wrapXOR(payload, byte(opts.Key))
	case SchemeStream:
		body = wrapStream(payload, opts.Key)
	default:
		body = payload
	}
	if opts.Padding <= 0 {
		return body
	}
	pad := make([]byte, opts.Padding)
	x := opts.PadSeed | 1
	for i := range pad {
		// Cheap deterministic junk that cannot collide with the magics,
		// which are all printable ASCII: keep the high bit set.
		x = x*37 + 101
		pad[i] = x | 0x80
	}
	return append(pad, body...)
}

// wrapXOR encodes payload with a rolling XOR. The wrapper stores the seed in
// the clear: vendors rely on obscurity, and unpackers recover it from the
// header exactly as the paper's pre-processing does.
func wrapXOR(payload []byte, seed byte) []byte {
	out := make([]byte, 0, len(MagicXOR)+1+4+len(payload))
	out = append(out, MagicXOR...)
	out = append(out, seed)
	var n [4]byte
	binary.LittleEndian.PutUint32(n[:], uint32(len(payload)))
	out = append(out, n[:]...)
	k := seed
	for _, b := range payload {
		out = append(out, b^k)
		k = k*31 + 7
	}
	return out
}

func unwrapXOR(src []byte) ([]byte, error) {
	if len(src) < len(MagicXOR)+5 {
		return nil, ErrCorrupt
	}
	seed := src[len(MagicXOR)]
	n := binary.LittleEndian.Uint32(src[len(MagicXOR)+1:])
	body := src[len(MagicXOR)+5:]
	if uint32(len(body)) < n {
		return nil, ErrCorrupt
	}
	out := make([]byte, n)
	k := seed
	for i := range out {
		out[i] = body[i] ^ k
		k = k*31 + 7
	}
	return out, nil
}

// streamKeystream derives a keystream byte sequence from a 32-bit key using
// a multiplicative congruential generator.
func streamByte(state *uint32) byte {
	*state = *state*1664525 + 1013904223
	return byte(*state >> 24)
}

// wrapStream encodes payload with an LCG keystream. The key is stored in the
// header obfuscated by a fixed vendor constant.
func wrapStream(payload []byte, key uint32) []byte {
	const vendorConst = 0x5f3759df
	out := make([]byte, 0, len(MagicStream)+8+len(payload))
	out = append(out, MagicStream...)
	var n [4]byte
	binary.LittleEndian.PutUint32(n[:], key^vendorConst)
	out = append(out, n[:]...)
	binary.LittleEndian.PutUint32(n[:], uint32(len(payload)))
	out = append(out, n[:]...)
	state := key
	for _, b := range payload {
		out = append(out, b^streamByte(&state))
	}
	return out
}

func unwrapStream(src []byte) ([]byte, error) {
	const vendorConst = 0x5f3759df
	if len(src) < len(MagicStream)+8 {
		return nil, ErrCorrupt
	}
	key := binary.LittleEndian.Uint32(src[len(MagicStream):]) ^ vendorConst
	n := binary.LittleEndian.Uint32(src[len(MagicStream)+4:])
	body := src[len(MagicStream)+8:]
	if uint32(len(body)) < n {
		return nil, ErrCorrupt
	}
	out := make([]byte, n)
	state := key
	for i := range out {
		out[i] = body[i] ^ streamByte(&state)
	}
	return out, nil
}

// decodeFS parses a cleartext filesystem payload and verifies its checksum.
// File data in the returned image aliases src (views, not copies); callers
// own src and must not modify it while the image is live.
func decodeFS(src []byte) (*Image, error) {
	if !bytes.HasPrefix(src, MagicFS) {
		return nil, ErrCorrupt
	}
	off := len(MagicFS)
	ru32 := func() (uint32, error) {
		if off+4 > len(src) {
			return 0, ErrCorrupt
		}
		v := binary.LittleEndian.Uint32(src[off:])
		off += 4
		return v, nil
	}
	rstr := func() (string, error) {
		n, err := ru32()
		if err != nil || off+int(n) > len(src) || n > 1<<16 {
			return "", ErrCorrupt
		}
		s := string(src[off : off+int(n)])
		off += int(n)
		return s, nil
	}
	im := &Image{}
	var err error
	if im.Vendor, err = rstr(); err != nil {
		return nil, err
	}
	if im.Product, err = rstr(); err != nil {
		return nil, err
	}
	if im.Version, err = rstr(); err != nil {
		return nil, err
	}
	count, err := ru32()
	if err != nil || count > 1<<16 {
		return nil, ErrCorrupt
	}
	for i := uint32(0); i < count; i++ {
		path, err := rstr()
		if err != nil {
			return nil, err
		}
		n, err := ru32()
		if err != nil || off+int(n) > len(src) {
			return nil, ErrCorrupt
		}
		// Zero-copy: the file's bytes are a capped view over the payload, not
		// a copy. The cap stops appends from clobbering the next entry.
		data := src[off : off+int(n) : off+int(n)]
		off += int(n)
		im.Files = append(im.Files, File{Path: path, Data: data})
	}
	sum, err := ru32()
	if err != nil {
		return nil, err
	}
	if crc32.ChecksumIEEE(src[:off-4]) != sum {
		return nil, ErrChecksum
	}
	return im, nil
}

// Unpack carves and decodes a firmware image from an arbitrary byte stream.
// It scans for any known magic (filesystem or vendor wrapper) at any offset,
// unwraps encodings, and parses the filesystem.
//
// Unpacking is zero-copy: for a plaintext image the files' Data slices are
// views into raw itself; for an encoded image they are views into the single
// buffer the vendor layer was decrypted into. Either way raw must not be
// modified while the returned image (or anything decoded from its files) is
// in use.
func Unpack(raw []byte) (*Image, error) {
	type candidate struct {
		off    int
		scheme Scheme
	}
	var cands []candidate
	for _, m := range []struct {
		magic  []byte
		scheme Scheme
	}{
		{MagicFS, SchemeNone},
		{MagicXOR, SchemeXOR},
		{MagicStream, SchemeStream},
	} {
		for off := 0; ; {
			i := bytes.Index(raw[off:], m.magic)
			if i < 0 {
				break
			}
			cands = append(cands, candidate{off: off + i, scheme: m.scheme})
			off += i + 1
		}
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].off < cands[j].off })
	var firstErr error
	for _, c := range cands {
		var payload []byte
		var err error
		switch c.scheme {
		case SchemeXOR:
			payload, err = unwrapXOR(raw[c.off:])
		case SchemeStream:
			payload, err = unwrapStream(raw[c.off:])
		default:
			payload = raw[c.off:]
		}
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		im, err := decodeFS(payload)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		return im, nil
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return nil, ErrNoImage
}

// DetectScheme reports the vendor encoding of an image without unpacking it.
func DetectScheme(raw []byte) Scheme {
	ix := bytes.Index(raw, MagicXOR)
	is := bytes.Index(raw, MagicStream)
	ifs := bytes.Index(raw, MagicFS)
	best := SchemeNone
	bestOff := ifs
	if ix >= 0 && (bestOff < 0 || ix < bestOff) {
		best, bestOff = SchemeXOR, ix
	}
	if is >= 0 && (bestOff < 0 || is < bestOff) {
		best = SchemeStream
	}
	return best
}
