// Command mtcache-server runs a mid-tier cache against a TCP backend and
// offers a small interactive SQL shell. It performs the paper's §4 setup
// over the wire: shadow database import, cached-view provisioning with pull
// subscriptions, and a background pull agent.
//
//	mtcache-server -backend 127.0.0.1:7000
//
// The backend link is fault-tolerant: requests retry with exponential
// backoff, broken connections re-dial, and when the backend is unreachable
// queries without a freshness bound are answered from the (possibly stale)
// cached views.
//
// With -data-dir the cache checkpoints its cached views and pull cursors to
// disk; on restart the views restore from the checkpoint and resume their
// change streams at the checkpointed LSN instead of reseeding over the wire.
//
// With -serve the cache also listens on a wire address for routed
// application traffic: a session router (mtcache.NewSessionRouter, or
// mtbench -experiment scaleout in external mode) pins sessions to caches
// and gates each session's reads on its read-your-writes watermark.
//
// Shell commands: any SQL statement (including EXPLAIN [ANALYZE] <query>);
// \explain <query>; \top; \slow; \events; \trace; \pull; \checkpoint;
// \metrics; \quit. The sys.* virtual tables (sys.query_stats,
// sys.query_plans, sys.events, sys.cached_views, sys.repl_status,
// sys.wal_stats) answer ordinary SELECTs.
//
// The server also exposes an observability endpoint (-http, default
// 127.0.0.1:8344): /metrics in Prometheus text format, /metrics.json,
// /debug/trace/last with the most recent query's span tree, /debug/events
// and /debug/querystore. Run with -shell=false for headless deployments
// (blocks until SIGINT).
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"time"

	"mtcache"
	"mtcache/internal/obs"
	"mtcache/internal/querystore"
	"mtcache/internal/shell"
	"mtcache/internal/tpcw"
)

func main() {
	var (
		backendAddr = flag.String("backend", "127.0.0.1:7000", "backend wire address")
		name        = flag.String("name", "cache1", "cache server name")
		httpAddr    = flag.String("http", "127.0.0.1:8344", "observability HTTP address (/metrics, /debug/trace/last, /debug/querystore); empty disables")
		serveAddr   = flag.String("serve", "", "wire listen address for routed application traffic (session routers dial this); empty disables")
		runShell    = flag.Bool("shell", true, "run the interactive SQL shell on stdin (false = headless, wait for SIGINT)")
		tpcwViews   = flag.Bool("tpcw-views", true, "provision the paper's TPC-W cache: the four cached views, their indexes and every procedure except the update-dominated ones")
		pull        = flag.Duration("pull", 200*time.Millisecond, "pull-subscription poll interval")
		retries     = flag.Int("retries", 0, "max attempts per backend request (0 = default policy)")
		timeout     = flag.Duration("timeout", 0, "per-request deadline (0 = default policy)")
		pool        = flag.Int("pool", 0, "multiplexed backend connections in the pool (0 = default policy)")
		dataDir     = flag.String("data-dir", "", "cache checkpoint directory; restarts resume cached views at the checkpointed LSN instead of reseeding")
		ckptTick    = flag.Duration("checkpoint-interval", 30*time.Second, "periodic cache checkpoint cadence with -data-dir (0 disables)")
		qsEnabled   = flag.Bool("querystore", true, "record per-query-shape runtime stats (sys.query_stats)")
		slowQuery   = flag.Duration("slow-query", 100*time.Millisecond, "capture EXPLAIN ANALYZE for shapes slower than this (sys.query_plans, \\slow)")
	)
	flag.Parse()

	querystore.Default.SetEnabled(*qsEnabled)
	querystore.Default.SetSlowThreshold(*slowQuery)

	policy := mtcache.DefaultRetryPolicy()
	if *retries > 0 {
		policy.MaxAttempts = *retries
	}
	if *timeout > 0 {
		policy.RequestTimeout = *timeout
	}
	if *pool > 0 {
		policy.PoolSize = *pool
	}
	client, err := mtcache.DialBackendResilient(*backendAddr, policy)
	if err != nil {
		log.Fatal(err)
	}
	defer client.Close()

	cache, err := mtcache.NewRemoteCacheDurable(*name, client, nil, *dataDir)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s: shadow database imported from %s\n", *name, *backendAddr)

	if *tpcwViews {
		if err := tpcw.SetupRemoteCache(cache); err != nil {
			log.Printf("TPC-W cache setup: %v", err)
		} else {
			fmt.Println("TPC-W cache provisioned: cached views cv_item, cv_author, cv_orders, cv_order_line, their indexes, and the cacheable procedures")
		}
	}
	cache.StartPulling(*pull)
	defer cache.StopPulling()

	if *serveAddr != "" {
		wsrv, err := mtcache.ServeCache(cache, *serveAddr, mtcache.WireServerOptions{})
		if err != nil {
			log.Fatal(err)
		}
		defer wsrv.Close()
		fmt.Printf("cache serving routed sessions on %s\n", wsrv.Addr())
	}

	stopCkpt := make(chan struct{})
	if *dataDir != "" {
		// A final checkpoint on the way out captures the freshest cursors.
		defer func() {
			close(stopCkpt)
			if err := cache.Checkpoint(); err != nil {
				log.Printf("final checkpoint: %v", err)
			}
		}()
		if *ckptTick > 0 {
			go func() {
				t := time.NewTicker(*ckptTick)
				defer t.Stop()
				for {
					select {
					case <-stopCkpt:
						return
					case <-t.C:
						if err := cache.Checkpoint(); err != nil {
							log.Printf("checkpoint: %v", err)
						}
					}
				}
			}()
		}
	}

	if *httpAddr != "" {
		bound, closeHTTP, err := obs.Serve(*httpAddr, nil, nil)
		if err != nil {
			log.Fatal(err)
		}
		defer closeHTTP() //nolint:errcheck
		fmt.Printf("observability on http://%s/metrics\n", bound)
	}

	if !*runShell {
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt)
		<-sig
		fmt.Println("\nshutting down")
		return
	}

	shell.Run(shell.Config{
		Name:       *name,
		Exec:       func(sqlText string) (*mtcache.Result, error) { return cache.DB.Exec(sqlText, nil) },
		Explain:    cache.DB.Explain,
		Pull:       cache.Pull,
		Checkpoint: cache.Checkpoint,
		In:         os.Stdin,
		Out:        os.Stdout,
	})
}
