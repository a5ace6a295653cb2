// Command fitsctl submits firmware to a running fitsd service and manages
// its jobs — the CLI face of the client package.
//
// Usage:
//
//	fitsctl [-addr URL] submit [-wait] [-engine E] [-its] [-top N] [-scan] [-out F] firmware.fw
//	fitsctl [-addr URL] diff [-wait] [-by-path] [-out F] old.fw new.fw
//	fitsctl [-addr URL] corpus [-wait] [-xmode M] [-out F] tree-dir
//	fitsctl [-addr URL] status <job-id>
//	fitsctl [-addr URL] result <job-id>
//	fitsctl [-addr URL] list
//	fitsctl [-addr URL] cancel <job-id>
//	fitsctl [-addr URL] health | metrics
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"fits"
	"fits/client"
	"fits/internal/optbuild"
	"fits/internal/server"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("fitsctl: ")
	addr := flag.String("addr", "http://127.0.0.1:8417", "base URL of the fitsd service")
	retries := flag.Int("retries", 1, "attempts per API call; >1 enables retry with backoff")
	callTimeout := flag.Duration("call-timeout", 0, "deadline per API call attempt (0 = none)")
	flag.Usage = usage
	flag.Parse()
	if flag.NArg() < 1 {
		usage()
		os.Exit(2)
	}
	c := client.New(*addr, nil)
	if p, ok := retryPolicy(*retries, *callTimeout); ok {
		c = c.WithRetry(p)
	}
	ctx := context.Background()
	cmd, args := flag.Arg(0), flag.Args()[1:]
	var err error
	switch cmd {
	case "submit":
		err = runSubmit(ctx, c, args)
	case "diff":
		err = runDiff(ctx, c, args)
	case "corpus":
		err = runCorpus(ctx, c, args)
	case "status":
		err = runStatus(ctx, c, args)
	case "result":
		err = runResult(ctx, c, args)
	case "list":
		err = runList(ctx, c)
	case "cancel":
		err = runCancel(ctx, c, args)
	case "health":
		err = runHealth(ctx, c)
	case "metrics":
		err = runMetrics(ctx, c)
	default:
		log.Printf("unknown command %q", cmd)
		usage()
		os.Exit(2)
	}
	if err != nil {
		log.Fatal(err)
	}
}

// retryPolicy maps -retries and -call-timeout onto a client policy; ok is
// false when neither flag asks for one. -retries counts attempts, so any
// value below 1 means a single attempt.
func retryPolicy(retries int, callTimeout time.Duration) (p client.RetryPolicy, ok bool) {
	if retries <= 1 && callTimeout <= 0 {
		return p, false
	}
	p = client.DefaultRetryPolicy()
	p.MaxAttempts = max(retries, 1)
	p.CallTimeout = callTimeout
	return p, true
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: fitsctl [-addr URL] [-retries N] [-call-timeout D] <command> [args]

-retries N enables client-side resilience: transient failures (connection
errors, 429/502/503/504) are retried up to N attempts with jittered
exponential backoff honoring the server's Retry-After, and a submission
interrupted mid-flight is recovered by content hash instead of re-posted.

commands:
  submit [-wait] [-engine E] [-its] [-scan] [-top N] [-j N] [-timeout D] [-by-path] [-out FILE] firmware.fw
  diff [-wait] [-engine E] [-top N] [-j N] [-timeout D] [-by-path] [-out FILE] old.fw new.fw
  corpus [-wait] [-xmode M] [-top N] [-j N] [-timeout D] [-out FILE] tree-dir|packed.fw
                       cross-binary taint scan over a firmware tree (a
                       directory is packed client-side; a file is sent as-is)
  status <job-id>      print one job's status JSON
  result <job-id>      print a done job's result JSON
  list                 list retained jobs
  cancel <job-id>      cancel a queued or running job
  health               print service health
  metrics              print the Prometheus metrics text`)
}

func runSubmit(ctx context.Context, c *client.Client, args []string) error {
	fs := flag.NewFlagSet("submit", flag.ExitOnError)
	var spec optbuild.Spec
	spec.BindAnalyzeFlags(fs)
	spec.BindScanFlags(fs)
	scan := fs.Bool("scan", false, "run a taint scan after inference")
	wait := fs.Bool("wait", false, "block until the job finishes and print its result")
	byPath := fs.Bool("by-path", false, "send the file path instead of the bytes (server-local file)")
	out := fs.String("out", "", "with -wait: write the result JSON to this file")
	poll := fs.Duration("poll", 100*time.Millisecond, "with -wait: status poll interval")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("submit: want exactly one firmware file, got %d args", fs.NArg())
	}
	spec.Scan = *scan
	var (
		resp *server.SubmitResponse
		err  error
	)
	if *byPath {
		resp, err = c.SubmitPath(ctx, fs.Arg(0), spec)
	} else {
		raw, rerr := os.ReadFile(fs.Arg(0))
		if rerr != nil {
			return rerr
		}
		resp, err = c.Submit(ctx, raw, spec)
	}
	if err != nil {
		return err
	}
	fmt.Printf("job %s %s\n", resp.ID, resp.State)
	if !*wait {
		return nil
	}
	return awaitResult(ctx, c, resp.ID, *poll, *out)
}

// runDiff submits two firmware versions for an evolution diff.
func runDiff(ctx context.Context, c *client.Client, args []string) error {
	fs := flag.NewFlagSet("diff", flag.ExitOnError)
	var spec optbuild.Spec
	spec.BindAnalyzeFlags(fs)
	fs.StringVar(&spec.Engine, "engine", "static", `engine: "static" (STA) or "symbolic" (Karonte-style)`)
	wait := fs.Bool("wait", false, "block until the diff finishes and print its result")
	byPath := fs.Bool("by-path", false, "send the file paths instead of the bytes (server-local files)")
	out := fs.String("out", "", "with -wait: write the result JSON to this file")
	poll := fs.Duration("poll", 100*time.Millisecond, "with -wait: status poll interval")
	fs.Parse(args)
	if fs.NArg() != 2 {
		return fmt.Errorf("diff: want exactly two firmware files (old new), got %d args", fs.NArg())
	}
	var (
		resp *server.SubmitResponse
		err  error
	)
	if *byPath {
		resp, err = c.SubmitDiffPaths(ctx, fs.Arg(0), fs.Arg(1), spec)
	} else {
		oldRaw, rerr := os.ReadFile(fs.Arg(0))
		if rerr != nil {
			return rerr
		}
		newRaw, rerr := os.ReadFile(fs.Arg(1))
		if rerr != nil {
			return rerr
		}
		resp, err = c.SubmitDiff(ctx, oldRaw, newRaw, spec)
	}
	if err != nil {
		return err
	}
	fmt.Printf("job %s %s\n", resp.ID, resp.State)
	if !*wait {
		return nil
	}
	return awaitResult(ctx, c, resp.ID, *poll, *out)
}

// runCorpus submits an unpacked firmware tree (or an already-packed corpus
// container) for a cross-binary taint scan.
func runCorpus(ctx context.Context, c *client.Client, args []string) error {
	fs := flag.NewFlagSet("corpus", flag.ExitOnError)
	var spec optbuild.Spec
	spec.BindAnalyzeFlags(fs)
	fs.StringVar(&spec.XMode, "xmode", "cross", "corpus seeding mode: cts, its or cross")
	wait := fs.Bool("wait", false, "block until the scan finishes and print its result")
	out := fs.String("out", "", "with -wait: write the result JSON to this file")
	poll := fs.Duration("poll", 100*time.Millisecond, "with -wait: status poll interval")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("corpus: want exactly one tree directory or packed corpus, got %d args", fs.NArg())
	}
	packed, err := packCorpusArg(fs.Arg(0))
	if err != nil {
		return err
	}
	resp, err := c.SubmitCorpus(ctx, packed, spec)
	if err != nil {
		return err
	}
	fmt.Printf("job %s %s\n", resp.ID, resp.State)
	if !*wait {
		return nil
	}
	return awaitResult(ctx, c, resp.ID, *poll, *out)
}

// packCorpusArg resolves the corpus argument: a directory is walked and
// packed client-side, a regular file is assumed already packed.
func packCorpusArg(path string) ([]byte, error) {
	info, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	if !info.IsDir() {
		return os.ReadFile(path)
	}
	files, err := fits.ReadCorpusDir(path)
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("corpus: no files under %s", path)
	}
	return fits.PackCorpus(files), nil
}

// awaitResult blocks until the job is done and prints (or writes) its
// result JSON.
func awaitResult(ctx context.Context, c *client.Client, id string, poll time.Duration, out string) error {
	st, err := c.Wait(ctx, id, poll)
	if err != nil {
		return err
	}
	if st.State != server.StateDone {
		return fmt.Errorf("job %s ended %s: %s", st.ID, st.State, st.Error)
	}
	elapsed := time.Duration(st.ElapsedMS) * time.Millisecond
	cacheNote := ""
	if st.Cache != nil {
		cacheNote = fmt.Sprintf(", models lifted %d / reused %d", st.Cache.Lifted, st.Cache.Reused)
	}
	fmt.Printf("job %s done in %s%s\n", st.ID, elapsed, cacheNote)
	res, err := c.Result(ctx, st.ID)
	if err != nil {
		return err
	}
	if out != "" {
		return os.WriteFile(out, res, 0o644)
	}
	fmt.Println(string(res))
	return nil
}

func runStatus(ctx context.Context, c *client.Client, args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("status: want one job id")
	}
	st, err := c.Job(ctx, args[0])
	if err != nil {
		return err
	}
	return printJSON(st)
}

func runResult(ctx context.Context, c *client.Client, args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("result: want one job id")
	}
	b, err := c.Result(ctx, args[0])
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

func runList(ctx context.Context, c *client.Client) error {
	jobs, err := c.Jobs(ctx)
	if err != nil {
		return err
	}
	for _, j := range jobs {
		elapsed := ""
		if j.ElapsedMS > 0 {
			elapsed = (time.Duration(j.ElapsedMS) * time.Millisecond).String()
		}
		fmt.Printf("%-10s %-9s %8d bytes  %-8s %s\n",
			j.ID, j.State, j.SizeBytes, elapsed, j.SubmittedAt.Format(time.RFC3339))
	}
	return nil
}

func runCancel(ctx context.Context, c *client.Client, args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("cancel: want one job id")
	}
	st, err := c.Cancel(ctx, args[0])
	if err != nil {
		return err
	}
	fmt.Printf("job %s %s\n", st.ID, st.State)
	return nil
}

func runHealth(ctx context.Context, c *client.Client) error {
	h, err := c.Health(ctx)
	if err != nil {
		return err
	}
	return printJSON(h)
}

func runMetrics(ctx context.Context, c *client.Client) error {
	m, err := c.Metrics(ctx)
	if err != nil {
		return err
	}
	fmt.Print(m)
	return nil
}

func printJSON(v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}
