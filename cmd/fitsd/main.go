// Command fitsd runs the FITS analysis pipeline as a long-lived HTTP
// service: firmware images are submitted as jobs, flow through a bounded
// queue into a worker pool sharing one process-wide model cache, and
// finished results are retained in an LRU+TTL store.
//
// Usage:
//
//	fitsd                                  # listen on :8417
//	fitsd -listen 127.0.0.1:0 -addr-file a # ephemeral port, written to a
//	fitsd -workers 4 -queue 128 -job-timeout 2m
//
// Endpoints: POST/GET /v1/jobs, POST /v1/diffs, POST /v1/corpora,
// GET /v1/jobs/{id}[/result], DELETE /v1/jobs/{id}, GET /healthz,
// GET /metrics. SIGINT/SIGTERM drain
// gracefully: intake stops, queued jobs are canceled, in-flight jobs get
// -drain-timeout to finish before their contexts are canceled.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"fits/internal/optbuild"
	"fits/internal/server"
)

func main() {
	log.SetFlags(log.LstdFlags)
	log.SetPrefix("fitsd: ")
	listen := flag.String("listen", ":8417", "address to listen on (host:0 picks an ephemeral port)")
	addrFile := flag.String("addr-file", "", "write the actual listen address to this file (for scripts)")
	workers := flag.Int("workers", server.DefaultWorkers, "concurrent analysis jobs")
	queueDepth := flag.Int("queue", server.DefaultQueueDepth, "bounded job queue depth (full = HTTP 429)")
	jobTimeout := flag.Duration("job-timeout", 0, "per-job wall-clock limit (0 = none)")
	storeCap := flag.Int("store-size", server.DefaultStoreCap, "finished jobs retained (LRU)")
	storeTTL := flag.Duration("store-ttl", server.DefaultStoreTTL, "finished job lifetime (0 = keep until evicted)")
	maxUpload := flag.Int64("max-upload", server.DefaultMaxUploadBytes, "largest accepted input in bytes: each part of a multipart submission, or a whole JSON or raw body")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "how long in-flight jobs may finish on shutdown")
	dataDir := flag.String("data-dir", "", "directory for the crash-safe job journal and result store (empty = memory only)")
	verbose := flag.Bool("v", false, "log each job transition")
	var cacheCfg optbuild.CacheConfig
	cacheCfg.BindFlags(flag.CommandLine)
	flag.Parse()
	if flag.NArg() != 0 {
		log.Fatal("usage: fitsd [-listen ADDR] [-workers N] [-queue N] [-job-timeout D] [-store-size N] [-store-ttl D] [-data-dir DIR] [-cache-size N] [-no-cache] [-drain-timeout D] [-v]")
	}

	cfg := server.Config{
		Workers:        *workers,
		QueueDepth:     *queueDepth,
		JobTimeout:     *jobTimeout,
		StoreCap:       *storeCap,
		StoreTTL:       *storeTTL,
		MaxUploadBytes: *maxUpload,
		Cache:          cacheCfg.New(),
		DataDir:        *dataDir,
	}
	if *verbose {
		cfg.Logf = log.Printf
	}
	srv, err := server.New(cfg)
	if err != nil {
		log.Fatal(err)
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Fatal(err)
	}
	addr := ln.Addr().String()
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(addr), 0o644); err != nil {
			log.Fatal(err)
		}
	}
	log.Printf("listening on %s (%d workers, queue %d)", addr, *workers, *queueDepth)

	hs := &http.Server{Handler: srv}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-serveErr:
		log.Fatal(err)
	case <-ctx.Done():
	}
	stop()
	log.Printf("draining (deadline %s)", *drainTimeout)
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Shutdown(drainCtx); err != nil {
		log.Printf("drain deadline hit; in-flight jobs were canceled: %v", err)
	}
	if err := hs.Shutdown(drainCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("http shutdown: %v", err)
	}
	log.Print("bye")
}
