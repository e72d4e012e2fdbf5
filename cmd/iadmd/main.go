// Command iadmd is the IADM routing daemon: it serves destination tags
// (SSDT and TSDT/REROUTE, Sections 3–5 of the paper) over HTTP from an
// internal/routesvc service — sharded epoch-stamped TSDT tag cache,
// request coalescing, batch routing, fault/repair ingestion, JSON
// metrics — and drains gracefully on SIGTERM/SIGINT. An SSDT tag is the
// destination address (Theorem 3.1), so SSDT requests are answered from
// the request itself, with no cache and no warm-up.
//
// Usage:
//
//	iadmd [-n N] [-addr host:port] [-shards S] [-portfile F]
//	      [-max-nets K] [-sweep-every K] [-admission-max Q]
//	      [-admission-min Q] [-admission-round D] [-slow-cost D]
//
// The daemon hosts named networks ("partitions" to a fleet router, see
// cmd/iadmfleet): every request may carry a "net" (JSON field or ?net=
// query); each name is an independent network — own blockage map, own
// epoch, own tag cache — created lazily on first use (up to -max-nets),
// all sized -n. The empty name addresses the built-in "default" network,
// so single-network deployments are unchanged. All networks share ONE
// slow-path admission gate: the gate bounds this process's REROUTE
// compute capacity, which the networks share.
//
// Admission control bounds concurrent fresh TSDT computes (the slow
// path); excess requests answer 429 with Retry-After while cache hits and
// SSDT requests keep flowing. -slow-cost stretches each fresh compute to
// rehearse overload against small test fabrics. -sweep-every sets the
// auto-sweep cadence that reclaims stale TSDT cache entries (every K
// epoch bumps; -1 disables).
//
// Endpoints:
//
//	GET|POST /route        ?src=&dst=&scheme=ssdt|tsdt (or JSON body)
//	POST     /route/batch  {"requests":[{"src":..,"dst":..,"scheme":".."}]}
//	POST     /fault        {"links":["1:2:+"],"switches":["1:3"]}
//	POST     /repair       {"links":["1:2:+"]}
//	GET      /healthz      liveness and drain state
//	GET      /metrics      JSON cache/latency/epoch metrics
//
// With -addr ending in :0 the kernel picks a free port; -portfile writes
// the bound host:port to a file so scripts (make serve-smoke) can find it.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"iadm/internal/buildinfo"
	"iadm/internal/routesvc"
)

type daemonConfig struct {
	n, shards    int
	addr         string
	portFile     string
	drainTimeout time.Duration

	admissionMax   int
	admissionMin   int
	admissionRound time.Duration
	slowCost       time.Duration

	sweepEvery int
	maxNets    int
}

func main() {
	cfg := daemonConfig{}
	flag.IntVar(&cfg.n, "n", 1024, "network size N (power of two)")
	flag.IntVar(&cfg.shards, "shards", 0, "tag-cache shards, rounded up to a power of two (0 = 64)")
	flag.StringVar(&cfg.addr, "addr", "127.0.0.1:8080", "listen address (port 0 picks a free port)")
	flag.StringVar(&cfg.portFile, "portfile", "", "write the bound host:port to this file once listening")
	flag.DurationVar(&cfg.drainTimeout, "drain-timeout", 10*time.Second, "maximum time to wait for in-flight requests on shutdown")
	flag.IntVar(&cfg.admissionMax, "admission-max", 128, "slow-path admission ceiling: max concurrent fresh TSDT computes (0 disables admission control)")
	flag.IntVar(&cfg.admissionMin, "admission-min", 8, "slow-path admission floor the adaptive threshold never sheds below")
	flag.DurationVar(&cfg.admissionRound, "admission-round", 100*time.Millisecond, "admission controller round: how often the threshold adapts")
	flag.DurationVar(&cfg.slowCost, "slow-cost", 0, "artificial per-compute cost added to fresh TSDT computes (overload rehearsal; 0 = off)")
	flag.IntVar(&cfg.sweepEvery, "sweep-every", 0, "auto-sweep stale cache entries every K epoch bumps (0 = 256, negative disables)")
	flag.IntVar(&cfg.maxNets, "max-nets", 16, "maximum named networks hosted by this process (lazily created on first use)")
	version := flag.Bool("version", false, "print version and exit")
	flag.Parse()
	if *version {
		fmt.Println(buildinfo.Version("iadmd"))
		return
	}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	if err := serve(cfg, os.Stderr, stop, nil); err != nil {
		fmt.Fprintln(os.Stderr, "iadmd:", err)
		os.Exit(1)
	}
}

// serve runs the daemon until stop delivers a signal (or the listener
// fails). ready, when non-nil, receives the bound address once the daemon
// is accepting connections; tests use it in place of the port file.
func serve(cfg daemonConfig, logw io.Writer, stop <-chan os.Signal, ready chan<- string) error {
	multi := routesvc.NewMulti(routesvc.Config{
		N:      cfg.n,
		Shards: cfg.shards,
		Admission: routesvc.AdmissionConfig{
			Disabled: cfg.admissionMax == 0,
			MaxQueue: cfg.admissionMax,
			MinQueue: cfg.admissionMin,
			Round:    cfg.admissionRound,
		},
		SlowCost:   cfg.slowCost,
		SweepEvery: cfg.sweepEvery,
	}, cfg.maxNets)
	// Materialize the default network up front: it validates the config
	// before the listener opens.
	svc, err := multi.Get(routesvc.DefaultNet)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		return err
	}
	addr := ln.Addr().String()
	if cfg.portFile != "" {
		if err := writeFileAtomic(cfg.portFile, addr+"\n"); err != nil {
			ln.Close()
			return err
		}
	}
	fmt.Fprintf(logw, "iadmd: serving N=%d (%d-stage tags) on http://%s\n",
		svc.Params().Size(), svc.Params().Stages(), addr)
	if ready != nil {
		ready <- addr
	}

	srv := &http.Server{Handler: routesvc.NewMultiHandler(multi)}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	select {
	case err := <-errc:
		return err
	case sig := <-stop:
		fmt.Fprintf(logw, "iadmd: %v: draining\n", sig)
		ctx, cancel := context.WithTimeout(context.Background(), cfg.drainTimeout)
		defer cancel()
		// Shutdown closes the listener and waits for in-flight handlers;
		// Drain then flips the service state (instant once handlers are
		// done) so the final metrics line reports it.
		shutErr := srv.Shutdown(ctx)
		multi.Drain()
		<-errc // http.ErrServerClosed
		m, _ := multi.Metrics()
		fmt.Fprintf(logw, "iadmd: drained; served %d requests across %d nets (ssdt hit rate %.3f, tsdt hit rate %.3f, epoch %d, shed %d)\n",
			m.Requests, len(multi.Nets()), m.SSDTHitRate, m.TSDTHitRate, m.Epoch, m.Admission.Shed)
		return shutErr
	}
}

// writeFileAtomic writes via a temp file + rename so a polling reader
// never sees a half-written address.
func writeFileAtomic(path, content string) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".iadmd-port-*")
	if err != nil {
		return err
	}
	if _, err := tmp.WriteString(content); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return os.Rename(tmp.Name(), path)
}
