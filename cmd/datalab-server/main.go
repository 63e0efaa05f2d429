// Command datalab-server serves a datalab Platform over HTTP with the
// agent-first JSONL wire protocol (see docs/SERVER.md): per-session
// contexts over a shared catalog, server-side cursors, streamed query
// batches, streamed ingest, admission control with typed backpressure,
// and graceful cancellation when a client disconnects mid-stream.
//
// Operational output is JSONL on stdout — a startup line echoing the
// effective config (secrets redacted) followed by one ok/cancel/error
// event per request.
//
//	datalab-server -addr :8080 -demo-rows 100000
//
// With -data the catalog is durable: every registration and published
// chunk is journaled to a write-ahead log in that directory (fsync
// policy via -fsync), and boot recovers the exact pre-crash state,
// reported on a startup JSONL line with recovered_rows_total and
// replay_duration_ms. Without -data the catalog is memory-only.
//
//	datalab-server -addr :8080 -demo-rows 100000 -data /data -fsync always
//
// The bearer token, when required, comes from the DATALAB_AUTH_TOKEN_SECRET
// environment variable (the _secret suffix is the redaction contract).
//
// `datalab-server -check http://localhost:8080/healthz` probes a running
// server and exits 0/1 — the Docker HEALTHCHECK hook for images that
// carry no shell or curl.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"datalab"
	"datalab/internal/server"
)

// Connection-level limits of the wire protocol: constants, not flags.
// There is deliberately no ReadTimeout or WriteTimeout — either would cut
// a streaming ingest body or a long result stream mid-flight; those are
// bounded by admission control and client-disconnect cancellation.
const (
	// readHeaderTimeout bounds how long a client may take to send its
	// request headers, so a stalled connection cannot hold a goroutine.
	readHeaderTimeout = 10 * time.Second
	// idleTimeout closes a keep-alive connection with no request on it.
	idleTimeout = 2 * time.Minute
	// shutdownTimeout is how long in-flight streams get to finish after
	// SIGTERM before every session is cancelled.
	shutdownTimeout = 10 * time.Second
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	demoRows := flag.Int("demo-rows", 0, "register a demo `events` table with this many rows")
	maxConcurrent := flag.Int("max-concurrent", 0, "max concurrently executing queries (0 = 2x GOMAXPROCS)")
	queueTimeout := flag.Duration("queue-timeout", time.Second, "how long an over-limit query queues before a typed backpressure rejection")
	sessionIdle := flag.Duration("session-idle", 15*time.Minute, "idle TTL after which sessions, and cursors opened without one, are swept")
	dataDir := flag.String("data", "", "data directory for the write-ahead log; empty = memory-only (rows lost on restart)")
	fsync := flag.String("fsync", "always", "WAL fsync policy: always or off")
	checkpointBytes := flag.Int64("checkpoint-bytes", 0, "WAL bytes between automatic checkpoints (0 = 64MiB default, negative disables)")
	check := flag.String("check", "", "health-probe mode: GET this URL, exit 0 on ok (Docker HEALTHCHECK)")
	flag.Parse()

	if *check != "" {
		os.Exit(probe(*check))
	}

	var p *datalab.Platform
	if *dataDir != "" {
		start := time.Now()
		var err error
		p, err = datalab.OpenDurable(*dataDir, datalab.DurabilityOptions{
			Fsync:           *fsync,
			CheckpointBytes: *checkpointBytes,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, `{"code":"error","event":"recovery","error":%q}`+"\n", err.Error())
			os.Exit(1)
		}
		ds := p.DurabilityStats()
		fmt.Printf(`{"code":"startup","event":"recovery","data_dir":%q,"fsync":%q,"recovered_rows_total":%d,"recovered_tables":%d,"snapshot_version":%d,"replay_duration_ms":%.3f,"open_duration_ms":%.3f}`+"\n",
			*dataDir, *fsync, ds.RecoveredRows, len(p.Tables()), ds.SnapshotVersion,
			float64(ds.ReplayDuration.Microseconds())/1000, float64(time.Since(start).Microseconds())/1000)
	} else {
		p = datalab.MustNew()
	}
	defer p.Close()
	if *demoRows > 0 && !hasTable(p, "events") {
		// A recovered catalog already holds the durable events table;
		// re-registering the demo would wipe it with fresh rows.
		if err := server.LoadDemo(p, *demoRows); err != nil {
			fmt.Fprintf(os.Stderr, `{"code":"error","error":%q}`+"\n", err.Error())
			os.Exit(1)
		}
	}
	srv := server.New(p, server.Config{
		MaxConcurrentQueries: *maxConcurrent,
		QueueTimeout:         *queueTimeout,
		SessionIdleTimeout:   *sessionIdle,
		AuthTokenSecret:      os.Getenv("DATALAB_AUTH_TOKEN_SECRET"),
	}, os.Stdout)
	defer srv.Close()

	hs := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	fmt.Printf(`{"code":"ok","event":"listening","addr":%q,"demo_rows":%d}`+"\n", *addr, *demoRows)

	select {
	case err := <-errc:
		fmt.Fprintf(os.Stderr, `{"code":"error","error":%q}`+"\n", err.Error())
		os.Exit(1)
	case <-ctx.Done():
	}
	// Graceful drain: stop accepting, give in-flight streams a moment,
	// then cancel every session so the executors abort.
	shutdownCtx, cancel := context.WithTimeout(context.Background(), shutdownTimeout)
	defer cancel()
	if err := hs.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintf(os.Stderr, `{"code":"error","event":"shutdown","error":%q}`+"\n", err.Error())
	}
	fmt.Println(`{"code":"ok","event":"shutdown"}`)
}

func hasTable(p *datalab.Platform, name string) bool {
	for _, t := range p.Tables() {
		if t == name {
			return true
		}
	}
	return false
}

// probe GETs a health URL and reports via exit status, printing the
// body line through.
func probe(url string) int {
	client := &http.Client{Timeout: 3 * time.Second}
	resp, err := client.Get(url)
	if err != nil {
		fmt.Fprintf(os.Stderr, `{"code":"error","error":%q}`+"\n", err.Error())
		return 1
	}
	defer resp.Body.Close()
	io.Copy(os.Stdout, io.LimitReader(resp.Body, 4096))
	if resp.StatusCode != http.StatusOK {
		return 1
	}
	return 0
}
