// Command iadmfleet is the IADM fleet router: a thin HTTP proxy that
// partitions named networks across several iadmd backends with a
// consistent-hash ring (virtual nodes, per-partition replica sets) and
// re-exposes the single-daemon wire API — so clients, load generators
// and dashboards built for one iadmd talk to a whole fleet unchanged.
//
// Usage:
//
//	iadmfleet -backends URL[,URL...] [-replicas R]
//	          [-addr host:port] [-portfile F]
//	          [-retry-budget F] [-timeout D] [-probe-wait D]
//
// Request placement: a partition (named network) lives on R distinct
// backends; within a partition each (src,dst) pair has a stable owner
// replica, placed by a hash of the pair. /route/batch is
// scatter-gathered — split by owning backend, fanned out concurrently,
// merged back in input order, every sub-batch asking for the answer
// shape the client asked for (?answers=tags or the full shape). /fault and /repair fan out to EVERY replica of
// the partition and require every ack (Theorems 3.1/3.2: a replica that
// missed a report would keep computing TSDT tags against a stale map).
//
// A failed single route or sub-batch retries on the next replica;
// -retry-budget bounds router-initiated retries to a fraction of observed
// traffic so a dying backend cannot turn the router into a load
// amplifier.
//
// At startup the router probes every backend's /healthz (retrying up to
// -probe-wait) and requires one common network size N; a fleet over
// mismatched sizes would silently mis-route, so mismatch is fatal.
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
	"strings"
	"syscall"
	"time"

	"iadm/internal/buildinfo"
	"iadm/internal/fleet"
)

type fleetConfig struct {
	backends     string
	replicas     int
	addr         string
	portFile     string
	drainTimeout time.Duration
	probeWait    time.Duration

	retryBudget float64
	timeout     time.Duration
}

func main() {
	cfg := fleetConfig{}
	flag.StringVar(&cfg.backends, "backends", "", "comma-separated backend base URLs (required)")
	flag.IntVar(&cfg.replicas, "replicas", 0, "replicas per partition (0 = min(2, backends))")
	flag.StringVar(&cfg.addr, "addr", "127.0.0.1:8090", "listen address (port 0 picks a free port)")
	flag.StringVar(&cfg.portFile, "portfile", "", "write the bound host:port to this file once listening")
	flag.DurationVar(&cfg.drainTimeout, "drain-timeout", 10*time.Second, "maximum time to wait for in-flight requests on shutdown")
	flag.DurationVar(&cfg.probeWait, "probe-wait", 10*time.Second, "how long to keep retrying the startup backend probe")
	flag.Float64Var(&cfg.retryBudget, "retry-budget", 0.1, "retries allowed as a fraction of observed requests (0 disables retries)")
	flag.DurationVar(&cfg.timeout, "timeout", 0, "per-backend-call timeout (0 = 10s)")
	version := flag.Bool("version", false, "print version and exit")
	flag.Parse()
	if *version {
		fmt.Println(buildinfo.Version("iadmfleet"))
		return
	}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	if err := serve(cfg, os.Stderr, stop, nil); err != nil {
		fmt.Fprintln(os.Stderr, "iadmfleet:", err)
		os.Exit(1)
	}
}

func splitBackends(s string) []string {
	var out []string
	for _, b := range strings.Split(s, ",") {
		if b = strings.TrimSpace(b); b != "" {
			// Bare host:port entries (e.g. read from an iadmd portfile)
			// get the default scheme.
			if !strings.Contains(b, "://") {
				b = "http://" + b
			}
			out = append(out, strings.TrimSuffix(b, "/"))
		}
	}
	return out
}

// serve runs the router until stop delivers a signal. ready, when
// non-nil, receives the bound address once serving; tests use it in
// place of the port file.
func serve(cfg fleetConfig, logw io.Writer, stop <-chan os.Signal, ready chan<- string) error {
	backends := splitBackends(cfg.backends)
	if len(backends) == 0 {
		return fmt.Errorf("-backends is required (comma-separated base URLs)")
	}
	rt, err := fleet.New(fleet.Config{
		Backends:      backends,
		Replicas:      cfg.replicas,
		RetryFraction: cfg.retryBudget,
		Timeout:       cfg.timeout,
	})
	if err != nil {
		return err
	}
	// Backends may still be booting (the smoke harness starts everything
	// at once), so retry the probe until the deadline.
	deadline := time.Now().Add(cfg.probeWait)
	for {
		if err = rt.Probe(); err == nil {
			break
		}
		if time.Now().After(deadline) {
			return err
		}
		time.Sleep(50 * time.Millisecond)
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
	fmt.Fprintf(logw, "iadmfleet: routing N=%d across %d backends (R=%d) on http://%s\n",
		rt.N(), len(backends), rt.Ring().Replicas(), addr)
	if ready != nil {
		ready <- addr
	}

	srv := &http.Server{Handler: rt}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	select {
	case err := <-errc:
		return err
	case sig := <-stop:
		fmt.Fprintf(logw, "iadmfleet: %v: draining\n", sig)
		ctx, cancel := context.WithTimeout(context.Background(), cfg.drainTimeout)
		defer cancel()
		shutErr := srv.Shutdown(ctx)
		rt.Drain()
		<-errc // http.ErrServerClosed
		m := rt.Metrics()
		var proxied uint64
		for _, bk := range m.Fleet.Backends {
			proxied += bk.Requests
		}
		fmt.Fprintf(logw, "iadmfleet: drained; proxied %d backend calls (%d batches, %d sub-batches, %d retries, %d scrape errors)\n",
			proxied, m.Fleet.Batches, m.Fleet.SubBatches, m.Fleet.Retries, m.Fleet.ScrapeErrors)
		return shutErr
	}
}

// writeFileAtomic writes via a temp file + rename so a polling reader
// never sees a half-written address.
func writeFileAtomic(path, content string) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".iadmfleet-port-*")
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
