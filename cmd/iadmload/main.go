// Command iadmload is a closed-loop load generator for iadmd: N worker
// goroutines hammer /route (uniform or zipf destination mix, configurable
// SSDT/TSDT split), optionally churning faults and repairs of random
// nonstraight links (at most one per switch, the blockage class every
// scheme tolerates, so routes stay feasible), and report throughput plus
// latency percentiles from a log-bucketed stats.Latency histogram (the one
// the server's endpoints record in) alongside the server's own /metrics.
//
// Usage:
//
//	iadmload -addr 127.0.0.1:8080 [-workers 8] [-duration 2s]
//	         [-targets a:1,b:2] [-nets 0] [-churn-net NAME]
//	         [-tsdt 0.2] [-zipf 1.3] [-churn 0.01] [-batch 0]
//	         [-batch-mix 1,3,64,65,200] [-seed 1] [-check]
//	         [-overload] [-max-p99us 20000] [-max-shed 0.99] [-min-overload 0]
//
// -targets spreads the workers across several endpoints (workers are
// assigned round-robin; all endpoints must serve the same N) and the
// final report merges every endpoint's /metrics document into one
// cluster view — the percentile lines stay client-side and therefore
// already span all targets. -addr is shorthand for a single target.
//
// -nets spreads requests across K named networks ("p0".."p<K-1>" — the
// partitions of a fleet router, or lazily created networks of a
// multi-net iadmd). -churn-net confines fault/repair churn to one named
// network, so a smoke run can churn one partition while checking the
// others' epochs never move.
//
// -batch sends fixed-size /route/batch requests; -batch-mix cycles through
// a comma-separated list of sizes per iteration instead (sizes <= 1 go out
// as single /route calls), exercising the client's 64-lane path expansion
// at every remainder shape.
//
// With -check the exit status enforces the smoke contract: no transport
// errors, no non-200 route responses, no server-side 5xx, non-zero
// throughput, and no SSDT request on the slow path: the server's metrics
// must show zero SSDT misses and zero SSDT coalesced joins, since an SSDT
// tag is the destination address (Theorem 3.1) and is never computed.
// Every answered batch item's path, which routesvc.Client walks from the
// item's tag, must have n+1 switches and run from its src to its dst.
//
// -overload flips the contract for saturation rehearsals against a daemon
// running admission control: shed responses (429 or batch items with code
// "overload") become expected rather than fatal. The -check gate then
// demands the run actually overloaded the slow path (server sheds > 0,
// offered/admitted factor >= -min-overload), that the service never
// collapsed (successes > 0, shed fraction <= -max-shed, still zero 5xx),
// and that client p99 latency (the upper edge of its histogram bucket)
// stayed under -max-p99us — sheds are fail-fast, so overload must not
// inflate the tail.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"iadm/internal/buildinfo"
	"iadm/internal/routesvc"
	"iadm/internal/stats"
)

type loadConfig struct {
	addr     string
	targets  string
	nets     int
	churnNet string
	workers  int
	duration time.Duration
	tsdtFrac float64
	zipfS    float64
	churn    float64
	batch    int
	batchMix string
	seed     int64
	check    bool

	overload    bool
	maxP99US    float64
	maxShedFrac float64
	minOverload float64
}

// parseBatchMix parses the -batch-mix CSV into a size cycle; empty means
// "not set". Sizes must be positive (1 means a singleton GET).
func parseBatchMix(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	mix := make([]int, 0, len(parts))
	for _, part := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || v < 1 {
			return nil, fmt.Errorf("bad -batch-mix entry %q", part)
		}
		mix = append(mix, v)
	}
	return mix, nil
}

func main() {
	var cfg loadConfig
	flag.StringVar(&cfg.addr, "addr", "", "daemon address host:port or URL (required unless -targets)")
	flag.StringVar(&cfg.targets, "targets", "", "comma-separated endpoints; workers spread round-robin and the final metrics merge across all of them")
	flag.IntVar(&cfg.nets, "nets", 0, "spread requests across this many named networks p0..p<K-1> (0 = default network only)")
	flag.StringVar(&cfg.churnNet, "churn-net", "", "confine -churn fault/repair traffic to this named network")
	flag.IntVar(&cfg.workers, "workers", 8, "closed-loop worker goroutines")
	flag.DurationVar(&cfg.duration, "duration", 2*time.Second, "load duration")
	flag.Float64Var(&cfg.tsdtFrac, "tsdt", 0.2, "fraction of requests using the TSDT scheme (rest SSDT)")
	flag.Float64Var(&cfg.zipfS, "zipf", 1.3, "zipf exponent for destination popularity (values <= 1 mean uniform)")
	flag.Float64Var(&cfg.churn, "churn", 0, "per-request probability of also toggling a random nonstraight link fault")
	flag.IntVar(&cfg.batch, "batch", 0, "send /route/batch requests of this size instead of single /route calls (0/1 = singles)")
	flag.StringVar(&cfg.batchMix, "batch-mix", "", "cycle through these comma-separated batch sizes per iteration (overrides -batch; sizes <= 1 go as single /route calls)")
	flag.Int64Var(&cfg.seed, "seed", 1, "RNG seed")
	flag.BoolVar(&cfg.check, "check", false, "exit non-zero unless the run is error-free with non-zero throughput")
	flag.BoolVar(&cfg.overload, "overload", false, "saturation rehearsal: sheds (429s) are expected, and -check demands the slow path actually overloaded without collapsing")
	flag.Float64Var(&cfg.maxP99US, "max-p99us", 20000, "with -overload -check, maximum client p99 latency in µs")
	flag.Float64Var(&cfg.maxShedFrac, "max-shed", 0.99, "with -overload -check, maximum fraction of requests shed")
	flag.Float64Var(&cfg.minOverload, "min-overload", 0, "with -overload -check, minimum offered/admitted slow-path factor (e.g. 4 = 4x saturation)")
	version := flag.Bool("version", false, "print version and exit")
	flag.Parse()
	if *version {
		fmt.Println(buildinfo.Version("iadmload"))
		return
	}
	if cfg.addr == "" && cfg.targets == "" {
		fmt.Fprintln(os.Stderr, "iadmload: -addr or -targets is required")
		os.Exit(2)
	}
	sum, err := run(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "iadmload:", err)
		os.Exit(1)
	}
	if cfg.check {
		if msgs := sum.violations(cfg); len(msgs) > 0 {
			fmt.Fprintln(os.Stderr, "iadmload: CHECK FAILED:", strings.Join(msgs, "; "))
			os.Exit(1)
		}
		fmt.Fprintln(os.Stdout, "iadmload: check ok")
	}
}

// workerStats accumulates one worker's view of the run.
type workerStats struct {
	requests     int           // route requests issued (batch items counted singly)
	transport    int           // connection/IO failures
	badStatus    int           // non-200 route responses (422 unroutable included)
	itemErrors   int           // per-item errors inside 200 batch responses
	badPaths     int           // answered batch items whose path is not n+1 switches from src to dst
	shed         int           // 429 route responses (admission refusals)
	itemSheds    int           // batch items with code "overload" inside 200 responses
	faults       int           // fault toggles sent
	repairs      int           // repair toggles sent
	mutateErrors int           // failed fault/repair posts
	lat          stats.Latency // client latency in µs, as the server's endpoints record it
}

type summary struct {
	cfg     loadConfig
	n       int
	elapsed time.Duration
	total   workerStats
	metrics routesvc.MetricsJSON
}

func (s *summary) throughput() float64 {
	if s.elapsed <= 0 {
		return 0
	}
	return float64(s.total.requests) / s.elapsed.Seconds()
}

// sheds is the client-side view of admission refusals: 429 responses plus
// individually shed batch items.
func (s *summary) sheds() int { return s.total.shed + s.total.itemSheds }

// successes counts requests that came back 200 with a tag: total minus
// every failure class and minus sheds (a shed is not a success even
// though it is intentional).
func (s *summary) successes() int {
	return s.total.requests - s.total.transport - s.total.badStatus -
		s.total.itemErrors - s.sheds()
}

// okPerSec is the success throughput — the capacity number the fleet
// smoke compares across topologies (sheds excluded, so a gate that
// refuses 80% of traffic cannot masquerade as capacity).
func (s *summary) okPerSec() float64 {
	if s.elapsed <= 0 {
		return 0
	}
	return float64(s.successes()) / s.elapsed.Seconds()
}

// overloadFactor is offered/admitted slow-path demand as the server saw
// it: 1.0 means the gate never refused, 4.0 means four times saturation.
func (s *summary) overloadFactor() float64 {
	adm := s.metrics.Service.Admission
	if adm.Admitted == 0 {
		if adm.Shed == 0 {
			return 0
		}
		return float64(adm.Shed)
	}
	return float64(adm.Admitted+adm.Shed) / float64(adm.Admitted)
}

// violations evaluates the -check contract.
func (s *summary) violations(cfg loadConfig) []string {
	var v []string
	if s.total.requests == 0 {
		v = append(v, "zero requests completed")
	}
	if s.total.transport > 0 {
		v = append(v, fmt.Sprintf("%d transport errors", s.total.transport))
	}
	if s.total.badStatus > 0 {
		v = append(v, fmt.Sprintf("%d non-200 route responses", s.total.badStatus))
	}
	if s.total.itemErrors > 0 {
		v = append(v, fmt.Sprintf("%d batch item errors", s.total.itemErrors))
	}
	if s.total.mutateErrors > 0 {
		v = append(v, fmt.Sprintf("%d failed fault/repair posts", s.total.mutateErrors))
	}
	if s.metrics.HTTP5xx > 0 {
		v = append(v, fmt.Sprintf("server counted %d 5xx", s.metrics.HTTP5xx))
	}
	if ssdt := s.metrics.Service.SSDT; ssdt.Misses > 0 || ssdt.Coalesced > 0 {
		v = append(v, fmt.Sprintf("SSDT reached the slow path: %d misses, %d coalesced joins", ssdt.Misses, ssdt.Coalesced))
	}
	if s.total.badPaths > 0 {
		v = append(v, fmt.Sprintf("%d answered batch items with a path that is not n+1 switches from src to dst", s.total.badPaths))
	}
	if !cfg.overload {
		// In a normal run the server should never be driven into its
		// admission gate; a shed means the smoke scenario is mis-tuned.
		if n := s.sheds(); n > 0 {
			v = append(v, fmt.Sprintf("%d requests shed (429/overload) without -overload", n))
		}
		return v
	}

	// Overload contract: the slow path was genuinely saturated, yet the
	// service kept serving and the tail stayed bounded.
	adm := s.metrics.Service.Admission
	if !adm.Enabled {
		v = append(v, "overload mode against a daemon without admission control")
	}
	if adm.Shed == 0 {
		v = append(v, "overload mode but the server shed nothing (slow path never saturated)")
	}
	if f := s.overloadFactor(); f < cfg.minOverload {
		v = append(v, fmt.Sprintf("overload factor %.1fx < %.1fx", f, cfg.minOverload))
	}
	if s.successes() <= 0 {
		v = append(v, "service collapsed: zero successful responses under overload")
	}
	if frac := float64(s.sheds()) / float64(max(1, s.total.requests)); frac > cfg.maxShedFrac {
		v = append(v, fmt.Sprintf("shed fraction %.3f > %.3f", frac, cfg.maxShedFrac))
	}
	// Gate on the p99 bucket's upper edge: never below the exact p99.
	if p99 := s.total.lat.PercentileUpper(99); float64(p99) > cfg.maxP99US {
		v = append(v, fmt.Sprintf("client p99 %dµs > %.0fµs under overload", p99, cfg.maxP99US))
	}
	return v
}

// normBase turns an -addr/-targets entry into a base URL.
func normBase(s string) string {
	if !strings.Contains(s, "://") {
		s = "http://" + s
	}
	return strings.TrimSuffix(s, "/")
}

func run(cfg loadConfig, w io.Writer) (*summary, error) {
	var bases []string
	if cfg.targets != "" {
		for _, t := range strings.Split(cfg.targets, ",") {
			if t = strings.TrimSpace(t); t != "" {
				bases = append(bases, normBase(t))
			}
		}
	} else {
		bases = []string{normBase(cfg.addr)}
	}
	if len(bases) == 0 {
		return nil, fmt.Errorf("-targets has no endpoints")
	}
	if cfg.workers < 1 {
		return nil, fmt.Errorf("need at least 1 worker")
	}
	if cfg.batch < 0 || cfg.tsdtFrac < 0 || cfg.tsdtFrac > 1 || cfg.churn < 0 || cfg.churn > 1 || cfg.nets < 0 {
		return nil, fmt.Errorf("bad flag values")
	}
	mix, err := parseBatchMix(cfg.batchMix)
	if err != nil {
		return nil, err
	}

	// One routesvc.Client per target carries every request: batches
	// through its wire codec, singles, churn, /healthz and /metrics as raw
	// requests over its connection pool.
	clients := make(map[string]*routesvc.Client, len(bases))
	for _, base := range bases {
		clients[base] = routesvc.NewClient(base, 10*time.Second)
	}

	// The daemon tells us the address space; no -n flag to get wrong.
	// Every target must agree — mixed sizes would generate unroutable
	// (src,dst) pairs against the smaller fabrics.
	n := 0
	for _, base := range bases {
		var health routesvc.HealthJSON
		if err := getJSON(clients[base].HTTPClient(), base+"/healthz", &health); err != nil {
			return nil, fmt.Errorf("daemon not healthy at %s: %v", base, err)
		}
		if n == 0 {
			n = health.N
		} else if health.N != n {
			return nil, fmt.Errorf("%s serves N=%d, others N=%d", base, health.N, n)
		}
	}
	if n < 2 {
		return nil, fmt.Errorf("daemon reports N=%d", n)
	}
	// Stages = log2(n), for generating nonstraight churn links.
	stages := 0
	for 1<<stages < n {
		stages++
	}

	batchDesc := fmt.Sprintf("%d", cfg.batch)
	if mix != nil {
		batchDesc = "mix " + cfg.batchMix
	}
	target := bases[0]
	if len(bases) > 1 {
		target = fmt.Sprintf("%d targets", len(bases))
	}
	fmt.Fprintf(w, "iadmload: %d workers for %v against %s (N=%d, nets=%d, tsdt=%.2f, zipf=%.2f, churn=%.3f, batch=%s)\n",
		cfg.workers, cfg.duration, target, n, cfg.nets, cfg.tsdtFrac, cfg.zipfS, cfg.churn, batchDesc)

	claims := &churnClaims{held: map[string]bool{}}
	start := time.Now()
	deadline := start.Add(cfg.duration)
	results := make([]workerStats, cfg.workers)
	var wg sync.WaitGroup
	for id := 0; id < cfg.workers; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			base := bases[id%len(bases)]
			results[id] = worker(cfg, mix, clients[base], claims, base, n, stages, id, deadline)
		}(id)
	}
	wg.Wait()
	elapsed := time.Since(start)
	defer func() {
		for _, c := range clients {
			c.HTTPClient().CloseIdleConnections()
		}
	}()

	sum := &summary{cfg: cfg, n: n, elapsed: elapsed}
	for i := range results {
		r := &results[i]
		sum.total.requests += r.requests
		sum.total.transport += r.transport
		sum.total.badStatus += r.badStatus
		sum.total.itemErrors += r.itemErrors
		sum.total.badPaths += r.badPaths
		sum.total.shed += r.shed
		sum.total.itemSheds += r.itemSheds
		sum.total.faults += r.faults
		sum.total.repairs += r.repairs
		sum.total.mutateErrors += r.mutateErrors
		sum.total.lat.Merge(&r.lat)
	}
	// One /metrics scrape per target, merged into a single cluster view
	// (identical to the single-target document when there is one target).
	for i, base := range bases {
		var doc routesvc.MetricsJSON
		if err := getJSON(clients[base].HTTPClient(), base+"/metrics", &doc); err != nil {
			return nil, fmt.Errorf("fetching final metrics: %v", err)
		}
		if i == 0 {
			sum.metrics = doc
		} else {
			routesvc.MergeMetricsJSON(&sum.metrics, doc)
		}
	}

	lat := &sum.total.lat
	fmt.Fprintf(w, "requests: %d in %.2fs (%.0f req/s); errors: %d transport, %d bad status, %d batch items, %d bad paths, %d mutate\n",
		sum.total.requests, elapsed.Seconds(), sum.throughput(),
		sum.total.transport, sum.total.badStatus, sum.total.itemErrors, sum.total.badPaths, sum.total.mutateErrors)
	fmt.Fprintf(w, "success: %d ok (%.0f ok/s)\n", sum.successes(), sum.okPerSec())
	fmt.Fprintf(w, "latency µs: mean=%.1f p50=%d p90=%d p99=%d max=%d\n",
		lat.Mean(), lat.Percentile(50), lat.Percentile(90), lat.Percentile(99), lat.Max())
	fmt.Fprintf(w, "churn: %d faults, %d repairs; final epoch %d, blocked %d\n",
		sum.total.faults, sum.total.repairs, sum.metrics.Service.Epoch, sum.metrics.Controller.BlockedLinks)
	fmt.Fprintf(w, "server: ssdt answered %d, ssdt computed %d, tsdt computed %d, http 5xx %d\n",
		sum.metrics.Service.SSDT.Hits, sum.metrics.Service.SSDT.Misses, sum.metrics.Service.TSDT.Misses, sum.metrics.HTTP5xx)
	if sum.metrics.Service.SlicedBlocks > 0 {
		fmt.Fprintf(w, "server: sliced kernel filled %d lanes in %d blocks (%.1f%% lane fill)\n",
			sum.metrics.Service.SlicedLanes, sum.metrics.Service.SlicedBlocks,
			100*sum.metrics.Service.SlicedFill)
	}
	if adm := sum.metrics.Service.Admission; cfg.overload || sum.sheds() > 0 || adm.Shed > 0 {
		fmt.Fprintf(w, "overload: client saw %d 429s + %d shed batch items; server admitted %d, shed %d (%.1fx offered/admitted), bound %d\n",
			sum.total.shed, sum.total.itemSheds, adm.Admitted, adm.Shed,
			sum.overloadFactor(), adm.MaxQueue)
	}
	return sum, nil
}

// worker drives one closed loop against base through rc, the client the
// fleet router and the repository benchmark use: batches through its
// wire codec, singles as GET /route and churn through /fault and /repair
// as raw requests over its connection pool.
func worker(cfg loadConfig, mix []int, rc *routesvc.Client, claims *churnClaims, base string, n, stages, id int, deadline time.Time) workerStats {
	client := rc.HTTPClient()
	rng := rand.New(rand.NewSource(cfg.seed + int64(id)*0x9E3779B9))
	var zipf *rand.Zipf
	if cfg.zipfS > 1 {
		zipf = rand.NewZipf(rng, cfg.zipfS, 1, uint64(n-1))
	}
	var ws workerStats
	var faulted []string // this worker's outstanding nonstraight faults

	pickDst := func() int {
		if zipf != nil {
			return int(zipf.Uint64())
		}
		return rng.Intn(n)
	}
	pickScheme := func() string {
		if rng.Float64() < cfg.tsdtFrac {
			return "tsdt"
		}
		return "ssdt"
	}
	pickNet := func() string {
		if cfg.nets > 0 {
			return fmt.Sprintf("p%d", rng.Intn(cfg.nets))
		}
		return ""
	}

	mi := 0
	for time.Now().Before(deadline) {
		size := cfg.batch
		if mix != nil {
			size = mix[mi%len(mix)]
			mi++
		}
		if cfg.churn > 0 && rng.Float64() < cfg.churn {
			if len(faulted) > 0 && rng.Intn(2) == 0 {
				i := rng.Intn(len(faulted))
				spec := faulted[i]
				faulted = append(faulted[:i], faulted[i+1:]...)
				ws.repairs++
				if !postMutate(client, base+"/repair", spec, cfg.churnNet) {
					ws.mutateErrors++
				}
				claims.release(spec)
			} else {
				kind := "+"
				if rng.Intn(2) == 0 {
					kind = "-"
				}
				spec := fmt.Sprintf("%d:%d:%s", rng.Intn(stages), rng.Intn(n), kind)
				if claims.claim(spec) {
					faulted = append(faulted, spec)
					ws.faults++
					if !postMutate(client, base+"/fault", spec, cfg.churnNet) {
						ws.mutateErrors++
					}
				}
			}
		}
		if size > 1 {
			reqs := make([]routesvc.RouteJSON, size)
			for i := range reqs {
				reqs[i] = routesvc.RouteJSON{Net: pickNet(), Src: rng.Intn(n), Dst: pickDst(), Scheme: pickScheme()}
			}
			t0 := time.Now()
			out, err := rc.RouteBatch(reqs)
			us := uint64(time.Since(t0).Microseconds())
			ws.requests += size
			var apiErr *routesvc.APIError
			switch {
			case errors.As(err, &apiErr):
				ws.badStatus++
				continue
			case err != nil: // transport failure or undecodable body
				ws.transport++
				continue
			}
			ws.lat.Add(us)
			for i, r := range out.Responses {
				switch {
				case r.Code == "overload":
					ws.itemSheds++
				case r.Error != "":
					ws.itemErrors++
				case !pathJoins(r.Path, reqs[i].Src, reqs[i].Dst, stages):
					ws.badPaths++
				}
			}
		} else {
			url := fmt.Sprintf("%s/route?src=%d&dst=%d&scheme=%s", base, rng.Intn(n), pickDst(), pickScheme())
			if net := pickNet(); net != "" {
				url += "&net=" + net
			}
			t0 := time.Now()
			resp, err := client.Get(url)
			us := uint64(time.Since(t0).Microseconds())
			ws.requests++
			if err != nil {
				ws.transport++
				continue
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			switch resp.StatusCode {
			case http.StatusOK:
				ws.lat.Add(us)
			case http.StatusTooManyRequests:
				// Admission refusal: fail-fast by design, so it still
				// counts toward the client latency distribution.
				ws.shed++
				ws.lat.Add(us)
			default:
				ws.badStatus++
			}
		}
	}

	// Leave the map as we found it: repair this worker's leftover faults.
	for _, spec := range faulted {
		ws.repairs++
		if !postMutate(client, base+"/repair", spec, cfg.churnNet) {
			ws.mutateErrors++
		}
		claims.release(spec)
	}
	return ws
}

// pathJoins reports whether path visits one switch per stage of an
// n-stage network, starting at src and ending at dst.
func pathJoins(path []int, src, dst, n int) bool {
	return len(path) == n+1 && path[0] == src && path[n] == dst
}

// churnClaims holds the switches whose nonstraight links some worker
// has faulted. A worker faults a link only on a switch no worker holds,
// so at most one of a switch's two nonstraight links is ever blocked:
// the other still flips the stage's address bit, which keeps every pair
// routable. Two workers blocking both nonstraight links of one switch
// would disconnect every pair that must leave it nonstraight.
type churnClaims struct {
	mu   sync.Mutex
	held map[string]bool // "stage:switch"
}

// switchOf is the "stage:switch" part of a "stage:switch:kind" spec.
func switchOf(spec string) string { return spec[:strings.LastIndexByte(spec, ':')] }

// claim reserves spec's switch; false means another fault holds it.
func (c *churnClaims) claim(spec string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.held[switchOf(spec)] {
		return false
	}
	c.held[switchOf(spec)] = true
	return true
}

// release frees spec's switch once its fault is repaired.
func (c *churnClaims) release(spec string) {
	c.mu.Lock()
	delete(c.held, switchOf(spec))
	c.mu.Unlock()
}

func postMutate(client *http.Client, url, linkSpec, net string) bool {
	body, _ := json.Marshal(routesvc.MutateJSON{Net: net, Links: []string{linkSpec}})
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return false
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

func getJSON(client *http.Client, url string, out any) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("%s: status %d: %s", url, resp.StatusCode, bytes.TrimSpace(body))
	}
	return json.NewDecoder(resp.Body).Decode(out)
}
