// Command rexpd serves a moving-object index over HTTP/JSON: routed
// updates and deletes, streaming NDJSON batch ingest with admission
// control, the three paper query types plus Nearest (with an optional
// ?explain=1 EXPLAIN mode), Prometheus metrics, the flight-recorder
// trace endpoint, pprof, and health/readiness probes.  docs/API.md is
// the endpoint reference; docs/OPERATIONS.md is the runbook.
//
// The daemon owns the index's lifecycle: it opens (recovering if the
// previous run crashed and a durability policy is set) at the index's
// stored logical clock, serves until SIGTERM or SIGINT, then drains —
// stops admitting mutations, finishes the in-flight ones, lets readers
// complete, checkpoints and closes.  With a durability policy every
// acknowledged mutation survives the whole sequence, including a crash
// in the middle of it.
//
// A durable file-backed daemon is also a replication leader: it serves
// a consistent hot-backup stream on GET /v1/backup and the logical
// record tail on GET /v1/wal, and `rexpd -follow <leader-url> -path
// <dir>` runs a read-only follower that bootstraps from the backup
// stream and tails the records at bounded staleness.
//
// Usage:
//
//	rexpd -addr :7364 -path /var/lib/rexp/idx [-shards 4] [-partition hash|speed]
//	      [-durability none|on-commit|batched] [-max-inflight 4] [-timeout 30s] ...
//	rexpd -addr :7365 -follow http://leader:7364 -path /var/lib/rexp/replica
//
// With no -path the index is held in memory (and lost on exit).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"rexptree"
	"rexptree/internal/repl"
	"rexptree/internal/server"
)

func main() {
	var (
		addr      = flag.String("addr", ":7364", "listen address (host:port; port 0 picks a free port)")
		path      = flag.String("path", "", "index file base path; empty serves an in-memory index")
		shards    = flag.Int("shards", 4, "shard count (must match an existing index)")
		partition = flag.String("partition", "hash", "object->shard partition policy: hash or speed")
		bands     = flag.String("bands", "", "explicit speed-band boundaries, comma-separated (speed partition)")
		durab     = flag.String("durability", "none", "crash-safety policy: none, on-commit or batched (requires -path)")
		syncEvery = flag.Duration("sync-every", 0, "WAL fsync interval under -durability batched (default 100ms)")
		ckptBytes = flag.Int64("checkpoint-bytes", 0, "bound on a shard's WAL: a checkpoint per eighth of it logged, the log truncated at it (default 4MiB)")
		bufPages  = flag.Int("buffer-pages", 0, "total buffer-pool budget in 4KiB pages, split across shards (default 50/shard); with -durability it bounds clean pages, dirty ones stay until the next checkpoint")
		recorder  = flag.Int("flight-recorder", 256, "flight-recorder ring capacity; 0 disables /debug/rexp/traces retention")
		slowOp    = flag.Duration("slow", 0, "log operations at least this slow (0 disables) and keep their traces in the flight recorder's slow ring (default 10ms there)")
		inflight  = flag.Int("max-inflight", 4, "ingest batches admitted concurrently; more get 429 + Retry-After")
		maxBatch  = flag.Int("max-batch", 1000, "reports per UpdateBatch chunk of a streamed ingest body")
		timeout   = flag.Duration("timeout", 30*time.Second, "per-request deadline (504 past it); 0 disables")
		retry     = flag.Duration("retry-after", time.Second, "Retry-After hint on 429/503 responses")
		drainWait = flag.Duration("drain-timeout", time.Minute, "shutdown: maximum wait for in-flight requests")
		noPprof   = flag.Bool("nopprof", false, "do not mount net/http/pprof under /debug/pprof/")
		noRuntime = flag.Bool("noruntime", false, "do not append Go runtime metrics to /metrics scrapes")

		rateLimit = flag.Float64("rate-limit", 0, "per-client mutation requests/second (X-Client-Id or remote addr); 0 disables")
		rateBurst = flag.Int("rate-burst", 0, "per-client burst size for -rate-limit (default 2x the rate)")

		replRetain = flag.Int64("repl-retain", repl.DefaultRetainBytes, "replication feed retention in bytes on a durable leader; 0 disables the /v1/backup and /v1/wal endpoints")
		follow     = flag.String("follow", "", "run as a read-only follower of this leader URL (requires -path, used as the replica directory)")
		maxLag     = flag.Duration("max-lag", 30*time.Second, "follower: /readyz answers 503 \"stale\" past this replication lag")
	)
	flag.Parse()

	if err := run(config{
		addr: *addr, path: *path, shards: *shards,
		partition: *partition, bands: *bands, durability: *durab,
		syncEvery: *syncEvery, ckptBytes: *ckptBytes, bufPages: *bufPages,
		recorder: *recorder, slowOp: *slowOp,
		inflight: *inflight, maxBatch: *maxBatch, timeout: *timeout,
		retry: *retry, drainWait: *drainWait,
		pprof: !*noPprof, runtime: !*noRuntime,
		rateLimit: *rateLimit, rateBurst: *rateBurst,
		replRetain: *replRetain, follow: *follow, maxLag: *maxLag,
	}); err != nil {
		fmt.Fprintf(os.Stderr, "rexpd: %v\n", err)
		os.Exit(1)
	}
}

type config struct {
	addr, path, partition, bands, durability string
	shards, bufPages, recorder               int
	syncEvery, slowOp, timeout, retry        time.Duration
	ckptBytes                                int64
	inflight, maxBatch                       int
	drainWait                                time.Duration
	pprof, runtime                           bool

	rateLimit float64
	rateBurst int

	replRetain int64
	follow     string
	maxLag     time.Duration
}

func run(cfg config) error {
	if cfg.follow != "" {
		return runFollower(cfg)
	}
	ix, durability, err := openIndex(cfg)
	if err != nil {
		return err
	}

	scfg := server.Config{
		Index:          ix,
		MaxInFlight:    cfg.inflight,
		MaxBatch:       cfg.maxBatch,
		RequestTimeout: cfg.timeout,
		RetryAfter:     cfg.retry,
		Pprof:          cfg.pprof,
		RuntimeMetrics: cfg.runtime,
		RateLimit:      cfg.rateLimit,
		RateBurst:      cfg.rateBurst,
	}

	// A durable file-backed daemon doubles as a replication leader: the
	// hub attaches the logical record feed and serves the backup and
	// tail streams.  Memory-backed or non-durable indexes have no
	// crash-consistent files to stream, so the endpoints stay 503.
	var hub *repl.Hub
	if cfg.replRetain > 0 && cfg.path != "" && durability != rexptree.DurabilityNone {
		hub = repl.NewHub(ix, cfg.replRetain)
		scfg.Backup = hub.BackupHandler()
		scfg.WALFeed = hub.WALHandler()
		scfg.ReplStats = hub.Stats
	}

	srv := server.New(scfg)
	srv.SetDurability(durability.String())

	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		srv.CloseIndex()
		return err
	}
	httpSrv := &http.Server{Handler: srv}

	// The one line the smoke tests (and humans) parse: the bound
	// address, which matters when -addr asked for port 0.
	leader := ""
	if hub != nil {
		leader = ", replication on"
	}
	fmt.Fprintf(os.Stderr, "rexpd: serving http://%s (index: %s, %d shard(s), %s partition, durability %s%s)\n",
		ln.Addr(), pathOrMemory(cfg.path), ix.NumShards(), ix.Partition(), durability, leader)

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)

	select {
	case got := <-sig:
		fmt.Fprintf(os.Stderr, "rexpd: %v: draining (no new mutations; waiting for in-flight work)\n", got)
	case err := <-errc:
		srv.CloseIndex()
		return fmt.Errorf("serve: %w", err)
	}

	// Drain sequence: refuse new mutations and wait for the admitted
	// ones (srv.Drain), let the listener's remaining readers finish
	// (httpSrv.Shutdown), then checkpoint and close the index.  Every
	// mutation acknowledged before this point is on disk when Close
	// returns — and, under a durability policy, already was.
	srv.Drain()
	ctx, cancel := context.WithTimeout(context.Background(), cfg.drainWait)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "rexpd: shutdown: %v (closing the index anyway)\n", err)
	}
	if err := srv.CloseIndex(); err != nil {
		return fmt.Errorf("close: %w", err)
	}
	fmt.Fprintln(os.Stderr, "rexpd: clean shutdown")
	return nil
}

// swapServer serves through the current *server.Server and lets a
// follower re-bootstrap swap in a server over the new replica index:
// requests pin the current server with a read lock, the swap takes the
// write lock, so after a swap no request is still using the previous
// index and the applier may close it.
type swapServer struct {
	mu  sync.RWMutex
	srv *server.Server
}

func (sw *swapServer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	sw.mu.RLock()
	defer sw.mu.RUnlock()
	sw.srv.ServeHTTP(w, r)
}

func (sw *swapServer) swap(srv *server.Server) {
	sw.mu.Lock()
	sw.srv = srv
	sw.mu.Unlock()
}

func (sw *swapServer) current() *server.Server {
	sw.mu.RLock()
	defer sw.mu.RUnlock()
	return sw.srv
}

// runFollower runs the read-only replica mode: bootstrap (or resume) a
// replica of the leader under -path, serve the read API from it, and
// keep tailing the leader's record feed until shutdown.
func runFollower(cfg config) error {
	if cfg.path == "" {
		return errors.New("-follow requires -path (the replica directory)")
	}

	// app is declared before its options so the OnSwap closure can use
	// it; the applier only invokes OnSwap after NewApplier returns.
	var app *repl.Applier
	sw := &swapServer{}
	newServer := func(ix *rexptree.ShardedTree) *server.Server {
		srv := server.New(server.Config{
			Index:          ix,
			MaxInFlight:    cfg.inflight,
			MaxBatch:       cfg.maxBatch,
			RequestTimeout: cfg.timeout,
			RetryAfter:     cfg.retry,
			Pprof:          cfg.pprof,
			RuntimeMetrics: cfg.runtime,
			ReadOnly:       true,
			ReplStats:      app.Stats,
			LagSeconds:     app.LagSeconds,
			MaxLag:         cfg.maxLag,
		})
		srv.SetDurability("on-commit (replica)")
		return srv
	}
	app, err := repl.NewApplier(repl.ApplierOptions{
		Leader: cfg.follow,
		Dir:    cfg.path,
		// Every (re-)bootstrap publishes a fresh replica; swap a server
		// over it in under the request lock, then the applier closes the
		// superseded index.
		OnSwap: func(ix *rexptree.ShardedTree) { sw.swap(newServer(ix)) },
		Logf: func(format string, args ...any) {
			log.Printf("rexpd: "+format, args...)
		},
	})
	if err != nil {
		return err
	}

	// Bootstrap (or resume) before binding the listener, so the first
	// request ever served already has a consistent replica behind it.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	if err := app.Open(ctx); err != nil {
		return fmt.Errorf("follower bootstrap: %w", err)
	}
	sw.swap(newServer(app.Index()))

	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		app.Close()
		return err
	}
	httpSrv := &http.Server{Handler: sw}

	fmt.Fprintf(os.Stderr, "rexpd: serving http://%s (read-only follower of %s, replica dir %s)\n",
		ln.Addr(), cfg.follow, cfg.path)

	app.Start()

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()

	select {
	case <-ctx.Done():
		fmt.Fprintln(os.Stderr, "rexpd: signal: follower draining")
	case err := <-errc:
		app.Close()
		return fmt.Errorf("serve: %w", err)
	}

	sw.current().Drain()
	sctx, cancel := context.WithTimeout(context.Background(), cfg.drainWait)
	defer cancel()
	if err := httpSrv.Shutdown(sctx); err != nil {
		fmt.Fprintf(os.Stderr, "rexpd: shutdown: %v (closing the replica anyway)\n", err)
	}
	if err := app.Close(); err != nil {
		return fmt.Errorf("close replica: %w", err)
	}
	fmt.Fprintln(os.Stderr, "rexpd: clean shutdown")
	return nil
}

// openIndex translates the daemon flags into ShardedOptions.
func openIndex(cfg config) (*rexptree.ShardedTree, rexptree.Durability, error) {
	durability, err := rexptree.ParseDurability(cfg.durability)
	if err != nil {
		return nil, 0, err
	}
	if durability != rexptree.DurabilityNone && cfg.path == "" {
		return nil, 0, errors.New("-durability requires -path (a WAL needs a file-backed index)")
	}
	policy, err := rexptree.ParsePartitionPolicy(cfg.partition)
	if err != nil {
		return nil, 0, err
	}
	var speedBands []float64
	if cfg.bands != "" {
		for _, part := range strings.Split(cfg.bands, ",") {
			f, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
			if err != nil {
				return nil, 0, fmt.Errorf("-bands: %q is not a number", part)
			}
			speedBands = append(speedBands, f)
		}
	}

	opts := rexptree.DefaultOptions()
	opts.Path = cfg.path
	opts.Durability = durability
	opts.SyncEvery = cfg.syncEvery
	opts.CheckpointBytes = cfg.ckptBytes
	opts.BufferPages = cfg.bufPages
	opts.FlightRecorder = cfg.recorder
	opts.SlowOpThreshold = cfg.slowOp

	ix, err := rexptree.OpenSharded(rexptree.ShardedOptions{
		Options:    opts,
		Shards:     cfg.shards,
		Partition:  policy,
		SpeedBands: speedBands,
	})
	if err != nil {
		return nil, 0, err
	}
	return ix, durability, nil
}

func pathOrMemory(path string) string {
	if path == "" {
		return "memory"
	}
	return path
}
