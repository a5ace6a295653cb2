package fits

import (
	"context"
	"os"
	"path/filepath"

	"fits/internal/corpustaint"
	"fits/internal/firmware"
)

// CorpusFile is one file of an unpacked firmware tree handed to XScan:
// binaries, front-end artifacts and configuration alike, with
// slash-separated paths relative to the filesystem root ("bin/httpd",
// "www/index.html").
type CorpusFile = firmware.File

// CorpusReport is the deterministic outcome of a corpus scan: per-binary
// summaries, the front-end keyword set, the tainted channel endpoints the
// fixpoint discovered, and alerts with full cross-binary provenance.
type CorpusReport = corpustaint.Report

// CorpusAlert is one corpus finding; see CorpusReport.Alerts.
type CorpusAlert = corpustaint.Alert

// XScanOptions configures a corpus scan. Mode is "cts" (classical sources
// only), "its" (plus each binary's top-ranked inferred intermediate
// sources) or "cross" (plus front-end keyword seeding and the cross-binary
// channel fixpoint); empty means "cross".
type XScanOptions = corpustaint.Options

// XScan analyzes an unpacked firmware corpus as one system: front-end
// artifacts name the request parameters, border binaries fetching those
// parameters become seeded, and taint crosses binaries over nvram-style
// store, environment and spawned-helper channels until a fixpoint.
func XScan(files []CorpusFile, opts XScanOptions) (*CorpusReport, error) {
	return XScanContext(context.Background(), files, opts)
}

// XScanContext is XScan with cancellation: the context is checked per
// binary inside every fixpoint round, so scanning a large corpus can be
// aborted mid-flight.
func XScanContext(ctx context.Context, files []CorpusFile, opts XScanOptions) (*CorpusReport, error) {
	return corpustaint.Run(ctx, files, opts)
}

// ReadCorpusDir collects every regular file under dir as a corpus file set,
// with slash-separated paths relative to dir, in deterministic walk order.
func ReadCorpusDir(dir string) ([]CorpusFile, error) {
	var files []CorpusFile
	err := filepath.WalkDir(dir, func(p string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		data, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(dir, p)
		if err != nil {
			return err
		}
		files = append(files, CorpusFile{Path: filepath.ToSlash(rel), Data: data})
		return nil
	})
	if err != nil {
		return nil, err
	}
	return files, nil
}

// PackCorpus wraps a corpus file set in the firmware container format for
// transport (fitsctl ships packed corpora to fitsd's /v1/corpora). The
// packing is unencrypted and deterministic; Unpack on the service side
// recovers the identical file set.
func PackCorpus(files []CorpusFile) []byte {
	img := &firmware.Image{Vendor: "corpus", Product: "tree", Files: files}
	return img.Pack(firmware.PackOptions{Scheme: firmware.SchemeNone})
}
