package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"
)

// setupRepeats is how many times a gated run sets the workload up:
// setup_s is their median, and the last one carries the measured
// window.
const setupRepeats = 5

// runOpts shapes one runWorkload call.
type runOpts struct {
	setups  int  // setups to make (≥ 1)
	restart bool // crash-restart after the window: restart_s and the durability check
	traced  bool // tag requests for the in-process host's spans
	// afterWindow, when set, runs against the live host once the
	// window's counters are read (the traced run's direct passes) and
	// returns the engine epoch it leaves the host at.
	afterWindow func(g *gen, h host, dataDir string) (uint64, error)
}

// host is where a run's server lives: an exec'd selfheal-serve
// (untraced runs) or the same packages hosted in-process (traced).
type host interface {
	start(dataDir string) (base string, err error)
	ready(l *lane) error
	pid() int
	crash() // stop without a graceful drain
}

// execHost runs the prebuilt binary.
type execHost struct {
	bin, logPath string
	p            *serverProc
}

func (h *execHost) start(dataDir string) (string, error) {
	p, err := startServer(h.bin, dataDir, h.logPath)
	if err != nil {
		return "", err
	}
	h.p = p
	return p.base, nil
}

func (h *execHost) ready(l *lane) error { return h.p.waitReady(l.c, 120*time.Second) }
func (h *execHost) pid() int            { return h.p.pid() }
func (h *execHost) crash()              { h.p.kill() }

// metricsJSON is the slice of GET /metrics the benchmark reads.
type metricsJSON struct {
	LatencyByRoute map[string]struct {
		Count      uint64  `json:"count"`
		SumSeconds float64 `json:"sum_seconds"`
	} `json:"latency_by_route"`
	Chips   map[string]chipUsage `json:"chips"`
	Journal *struct {
		Appends     uint64  `json:"appends"`
		Compactions uint64  `json:"compactions"`
		Records     int     `json:"records"`
		FsyncCount  uint64  `json:"fsync_count"`
		FsyncMeanMS float64 `json:"fsync_mean_ms"`
		FsyncMaxMS  float64 `json:"fsync_max_ms"`
	} `json:"journal"`
	Guard *struct {
		AlertsTotal      uint64 `json:"alerts_total"`
		QuarantinedChips int    `json:"quarantined_chips"`
	} `json:"guard"`
}

type chipUsage struct {
	StressSeconds float64 `json:"stress_seconds"`
	HealSeconds   float64 `json:"heal_seconds"`
}

// parseProm reads the unlabelled samples of a Prometheus text
// exposition (the go_* runtime series among them).
func parseProm(text string) map[string]float64 {
	out := map[string]float64{}
	for _, line := range strings.Split(text, "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok || strings.ContainsRune(name, '{') {
			continue
		}
		if v, err := strconv.ParseFloat(strings.TrimSpace(val), 64); err == nil {
			out[name] = v
		}
	}
	return out
}

// counters is a snapshot of the server's exported counters.
type counters struct {
	m    metricsJSON
	prom map[string]float64
}

func readCounters(l *lane) (counters, error) {
	var c counters
	if err := l.getJSON("/metrics", &c.m); err != nil {
		return c, err
	}
	status, b, err := l.do(http.MethodGet, "/metrics?format=prometheus", nil, "")
	if err != nil {
		return c, err
	}
	if status != http.StatusOK {
		return c, fmt.Errorf("prometheus scrape: %d", status)
	}
	c.prom = parseProm(string(b))
	return c, nil
}

// runResult is one run's outcome.
type runResult struct {
	workload  string
	e2e       map[string]float64
	layer     map[string]float64
	attempted int64
	failed    int64
	checks    []string // failed output checks
	recs      []record
	plan      *plan
	setups    []float64     // each setup's seconds
	stealAt   []float64     // host steal (CPU-seconds) at each slice boundary
	cpuAt     []float64     // server CPU seconds at each slice boundary
	timeAt    []time.Time   // when each slice boundary was read
	kept      int           // slices the window metrics were taken over
	samples   [3]int        // window reads, writes and ticks
	window    time.Duration // measured window, warm-up excluded
}

func (r *runResult) fail(format string, args ...any) {
	r.checks = append(r.checks, fmt.Sprintf(format, args...))
}

// setupBodies pre-encodes the population requests, so setup_s times
// the server, not the generator's JSON encoding.
func setupBodies(p *plan) [][]byte {
	var out [][]byte
	if len(p.FleetSeeds) > 0 {
		chips := make([]map[string]any, 0, len(p.FleetSeeds)+1)
		for i, s := range p.FleetSeeds {
			chips = append(chips, map[string]any{"id": fleetID(i), "seed": s})
		}
		chips = append(chips, map[string]any{"id": headlineID, "seed": headlineSeed})
		b, _ := json.Marshal(map[string]any{"chips": chips})
		out = append(out, b)
		ops := make([]opBody, len(p.FleetSeeds))
		for i := range ops {
			ops[i] = phaseBody(kStress, fleetID(i), true)
		}
		b, _ = json.Marshal(map[string]any{"ops": ops})
		out = append(out, b)
		return out
	}
	const per = 1024
	for lo := 0; lo < len(p.Engine); lo += per {
		hi := min(lo+per, len(p.Engine))
		specs := make([]map[string]any, 0, hi-lo)
		for _, c := range p.Engine[lo:hi] {
			sp := map[string]any{"id": c.ID, "temp_c": c.TempC, "vdd": c.Vdd, "duty": c.Duty}
			if c.Phase != "" {
				sp["phase"] = c.Phase
			}
			if c.Schedule {
				sp["schedule"] = map[string]any{"stress_epochs": 16, "sleep_epochs": 8, "sleep_temp_c": 40, "sleep_vdd": -0.3}
			}
			specs = append(specs, sp)
		}
		b, _ := json.Marshal(map[string]any{"chips": specs})
		out = append(out, b)
	}
	return out
}

// failedCount reads a bulk reply's "failed" count (-1 if unreadable).
func failedCount(b []byte) int {
	var r struct {
		Failed *int `json:"failed"`
	}
	if json.Unmarshal(b, &r) != nil || r.Failed == nil {
		return -1
	}
	return *r.Failed
}

// populate loads the workload's chips through HTTP. For the fleet
// workloads it also gives every chip one 110 °C phase and drives the
// headline chip through the paper's experiment, returning its two
// degradation readings.
func populate(g *gen, bodies [][]byte) (headline [2]float64, err error) {
	l := g.lanes[0]
	post := func(l *lane, path string, body []byte) ([]byte, error) {
		status, b, err := l.do(http.MethodPost, path, body, "")
		g.cnt.add(err == nil && status == http.StatusOK)
		if err != nil {
			return nil, err
		}
		if status != http.StatusOK {
			return nil, fmt.Errorf("POST %s: %d %s", path, status, b)
		}
		return b, nil
	}
	if len(g.p.FleetSeeds) == 0 {
		errc := make(chan error, 2)
		for li := 0; li < 2; li++ {
			go func(li int) {
				for i := li; i < len(bodies); i += 2 {
					b, err := post(g.lanes[li], "/v1/engine/chips:batch", bodies[i])
					if err == nil && failedCount(b) != 0 {
						err = fmt.Errorf("engine registration refused chips: %.200s", b)
					}
					if err != nil {
						errc <- err
						return
					}
				}
				errc <- nil
			}(li)
		}
		for i := 0; i < 2; i++ {
			if e := <-errc; e != nil && err == nil {
				err = e
			}
		}
		return headline, err
	}
	b, err := post(l, "/v1/chips:batch", bodies[0])
	if err != nil {
		return headline, err
	}
	if failedCount(b) != 0 {
		return headline, fmt.Errorf("fleet create refused chips: %.200s", b)
	}
	if b, err = post(l, "/v1/ops:batch", bodies[1]); err != nil {
		return headline, err
	}
	var br batchReply
	if err := json.Unmarshal(b, &br); err != nil {
		return headline, err
	}
	for i, r := range br.Results {
		if r.Error != "" {
			return headline, fmt.Errorf("warm-up phase of %s: %s", r.ID, r.Error)
		}
		g.ackPhase(fleetID(i), kStress, phaseHours)
	}
	// The paper's headline through HTTP: 24 h DC at 110 °C, read, 6 h
	// at 110 °C / −0.3 V, read.
	steps := []struct {
		k     kind
		hours float64
	}{{kStress, 24}, {kMeasure, 0}, {kRejuv, 6}, {kMeasure, 0}}
	n := 0
	for _, s := range steps {
		path := "/v1/chips/" + headlineID + "/" + s.k.String()
		if s.k == kMeasure {
			status, b, err := l.do(http.MethodGet, path, nil, "")
			g.cnt.add(err == nil && status == http.StatusOK)
			if err != nil || status != http.StatusOK {
				return headline, fmt.Errorf("headline measure: %d %v", status, err)
			}
			var rd struct {
				DegradationPct float64 `json:"degradation_pct"`
			}
			if err := json.Unmarshal(b, &rd); err != nil {
				return headline, err
			}
			headline[n] = rd.DegradationPct
			n++
			continue
		}
		pb := phaseBody(s.k, headlineID, false)
		pb.Hours = s.hours
		raw, _ := json.Marshal(pb)
		if _, err := post(l, path, raw); err != nil {
			return headline, err
		}
		g.ackPhase(headlineID, s.k, s.hours)
	}
	return headline, nil
}

// runWorkload runs one plan against hosts made by newHost: the
// setups, the measured window, the output checks and the crash
// restart. workDir is scratch space inside the checkout.
func runWorkload(p *plan, newHost func() host, workDir string, o runOpts) (*runResult, error) {
	res := &runResult{workload: p.Workload, plan: p, e2e: map[string]float64{}, layer: map[string]float64{}}
	cnt := &counter{}
	bodies := setupBodies(p)
	var setups []float64
	var g *gen
	var h host
	var dataDir string
	var headline [2]float64
	for k := 0; k < o.setups; k++ {
		dataDir = filepath.Join(workDir, fmt.Sprintf("data-%d", k))
		os.RemoveAll(dataDir)
		if err := os.MkdirAll(dataDir, 0o755); err != nil {
			return nil, err
		}
		h = newHost()
		start := time.Now()
		base, err := h.start(dataDir)
		if err != nil {
			return nil, err
		}
		g = newGen(p, base, cnt, o.traced)
		if err := h.ready(g.lanes[0]); err != nil {
			h.crash()
			return nil, err
		}
		headline, err = populate(g, bodies)
		setups = append(setups, time.Since(start).Seconds())
		if err != nil {
			h.crash()
			return nil, fmt.Errorf("setup: %w", err)
		}
		if k < o.setups-1 {
			h.crash()
			g.close()
			os.RemoveAll(dataDir)
		}
	}
	defer g.close()
	res.e2e["setup_s"] = median(setups)
	res.setups = setups
	if len(p.FleetSeeds) > 0 {
		if err := checkHeadline(headline[0], headline[1]); err != nil {
			res.fail("%v", err)
		}
	}

	// The measured window.
	before, err := readCounters(g.lanes[0])
	if err != nil {
		h.crash()
		return nil, err
	}
	g.run(func(int) {
		cpu, _ := procCPU(h.pid())
		res.timeAt = append(res.timeAt, time.Now())
		res.cpuAt = append(res.cpuAt, cpu)
		res.stealAt = append(res.stealAt, hostSteal())
	})
	hwm, _ := procHWM(h.pid())
	after, err := readCounters(g.lanes[0])
	if err != nil {
		h.crash()
		return nil, err
	}
	res.recs = g.recs
	summarize(res, p, hwm, before, after)

	// Physics check on the live engine.
	if p.Workload == "engine-epochs" {
		for _, c := range p.Stable {
			var v chipView
			err := g.lanes[0].getJSON("/v1/engine/chips/"+engineID(c), &v)
			cnt.add(err == nil)
			if err != nil {
				res.fail("physics: %v", err)
				break
			}
			if err := checkPhysics(p.Engine[c], v); err != nil {
				res.fail("%v", err)
			}
		}
	}
	var ticked uint64
	for _, r := range res.recs {
		ticked = max(ticked, r.Epoch)
	}
	res.layer["journal.bytes_per_record"] = journalBytes(dataDir) / math.Max(1, res.layer["journal.records"])
	if o.afterWindow != nil {
		epoch, err := o.afterWindow(g, h, dataDir)
		if err != nil {
			h.crash()
			return nil, err
		}
		ticked = max(ticked, epoch)
	}

	// Crash, re-exec on the same journal, time to /readyz 200. The
	// first restart is checked for durability; more restarts of the
	// same journal, while they stay cheap, steady the timing.
	h.crash()
	var restarts []float64
	for o.restart && len(restarts) < maxRestarts && sum(restarts) < restartBudget.Seconds() {
		h2 := newHost()
		start := time.Now()
		base, err := h2.start(dataDir)
		if err != nil {
			return nil, fmt.Errorf("restart: %w", err)
		}
		g2 := newGen(p, base, cnt, false)
		err = h2.ready(g2.lanes[0])
		if err == nil {
			restarts = append(restarts, time.Since(start).Seconds())
			if len(restarts) == 1 {
				checkRestart(g2.lanes[0], cnt, g.acks, ticked, res)
			}
		}
		h2.crash()
		g2.close()
		if err != nil {
			return nil, fmt.Errorf("restart: %w", err)
		}
	}
	if o.restart {
		res.e2e["restart_s"] = median(restarts)
	}
	os.RemoveAll(dataDir)

	res.attempted, res.failed = cnt.attempted.Load(), cnt.failed.Load()
	res.e2e["error_rate"] = float64(res.failed) / math.Max(1, float64(res.attempted))
	return res, nil
}

// Restart repeats: up to maxRestarts, and no new one once restartBudget
// has been spent (fleet-batch's long replay is timed once).
const (
	maxRestarts   = 5
	restartBudget = 15 * time.Second
)

// checkRestart runs the durability check against a freshly restarted
// server.
func checkRestart(l *lane, cnt *counter, acks map[string]*ack, ticked uint64, res *runResult) {
	var m metricsJSON
	var es engineStatus
	err := l.getJSON("/metrics", &m)
	cnt.add(err == nil)
	if err == nil {
		err = l.getJSON("/v1/engine", &es)
		cnt.add(err == nil)
	}
	if err != nil {
		res.fail("after restart: %v", err)
	} else if err := checkDurability(acks, m.Chips, ticked, es.Stats.Epoch); err != nil {
		res.fail("%v", err)
	}
}

// journalBytes is the on-disk size of a journal directory.
func journalBytes(dir string) float64 {
	var n int64
	for _, f := range []string{"journal.log", "snapshot.json"} {
		if st, err := os.Stat(filepath.Join(dir, f)); err == nil {
			n += st.Size()
		}
	}
	return float64(n)
}

// writeKinds are the requests timed as a workload's writes.
func writeKinds(workload string) []kind {
	switch workload {
	case "fleet-batch":
		return []kind{kBatch}
	case "engine-epochs":
		return []kind{kCond}
	}
	return []kind{kStress, kRejuv, kMeasure}
}

func hasKind(ks []kind, k kind) bool {
	for _, x := range ks {
		if x == k {
			return true
		}
	}
	return false
}

// inWindow reports whether a record belongs to the measured window.
func inWindow(r record, warm time.Duration) bool {
	if r.Open {
		return r.Due >= warm
	}
	return r.Sent >= warm
}

// sliceLen cuts the window into slices. The host's CPU steal is read
// at every slice boundary, and slices during which the hypervisor stole
// a noticeable share of this machine's CPU are set aside (see
// keptSlices): that time belongs to a neighbour, not to the service.
// Percentiles, throughput and CPU per item are all taken over the
// samples of the kept slices, pooled.
const sliceLen = time.Second

// stealLimit is the most CPU a kept slice may have lost to the
// hypervisor: 0.05 CPU-seconds per 1-s slice, 2.5 % of the two vCPUs.
// Calm slices on the reference host lose 0–0.04.
const stealLimit = 0.05

// keptSlices picks the slices to measure from the host steal read at
// each slice boundary (stealAt[i] at the start of slice i): every slice
// that lost at most stealLimit, but never fewer than the least-stolen
// half (rounded up), so a window that falls in a steal episode is still
// measured over its calmer part.
func keptSlices(stealAt []float64) map[int]bool {
	n := len(stealAt) - 1
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	stolen := func(i int) float64 { return stealAt[i+1] - stealAt[i] }
	sort.SliceStable(order, func(a, b int) bool { return stolen(order[a]) < stolen(order[b]) })
	keep := map[int]bool{}
	for k, i := range order {
		if k >= (n+1)/2 && stolen(i) > stealLimit {
			break
		}
		keep[i] = true
	}
	return keep
}

// sliced holds window samples by slice.
type sliced map[int][]float64

func (s sliced) add(at time.Duration, v float64) {
	i := int(at / sliceLen)
	s[i] = append(s[i], v)
}

func (s sliced) len() int {
	n := 0
	for _, xs := range s {
		n += len(xs)
	}
	return n
}

// pool returns the samples of the kept slices.
func (s sliced) pool(keep map[int]bool) []float64 {
	var all []float64
	for i, xs := range s {
		if keep[i] {
			all = append(all, xs...)
		}
	}
	return all
}

// summarize turns one window's records and counters into the
// end-to-end metrics and the window-sourced per-layer metrics.
func summarize(res *runResult, p *plan, hwm float64, before, after counters) {
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	writes := writeKinds(p.Workload)
	reads, wr, ticks, done := sliced{}, sliced{}, sliced{}, sliced{}
	var late, tickS []float64
	var items, bytes float64
	var end time.Duration
	for _, r := range res.recs {
		if !inWindow(r, p.Warmup) {
			continue
		}
		at := r.Due - p.Warmup // slice by due (open loop) or send time
		end = max(end, r.Done)
		bytes += float64(r.Bytes)
		if r.Open {
			late = append(late, ms(r.Sent-r.Due))
		}
		switch {
		case r.Kind == kRead:
			reads.add(at, ms(r.latency()))
		case hasKind(writes, r.Kind):
			wr.add(at, ms(r.latency()))
		case r.Kind == kTick:
			ticks.add(at, ms(r.latency()))
			if r.TickS > 0 {
				tickS = append(tickS, r.TickS)
			}
		}
		// Items: chip ops for the fleet workloads, chip-epochs for
		// engine-epochs.
		if (p.Workload == "engine-epochs") == (r.Kind == kTick) {
			items += float64(r.Items)
			done.add(at, float64(r.Items))
		}
	}
	window := end - p.Warmup
	res.window = window
	res.samples = [3]int{reads.len(), wr.len(), ticks.len()}
	e := res.e2e
	keep := keptSlices(res.stealAt)
	res.kept = len(keep)
	rd, w := reads.pool(keep), wr.pool(keep)
	e["read_p50_ms"], e["tail.read_p90_ms"] = percentile(rd, 50), percentile(rd, 90)
	e["write_p50_ms"], e["tail.write_p90_ms"] = percentile(w, 50), percentile(w, 90)
	e["epoch_p50_ms"] = percentile(ticks.pool(keep), 50)
	// Throughput and CPU per item over the same slices: items of the
	// requests due (or, closed loop, sent) in them, server CPU and wall
	// time spent in them.
	var keptItems, keptCPU, keptSecs float64
	for i := range keep {
		keptItems += sum(done[i])
		keptCPU += res.cpuAt[i+1] - res.cpuAt[i]
		keptSecs += res.timeAt[i+1].Sub(res.timeAt[i]).Seconds()
	}
	e["items_per_s"] = keptItems / keptSecs
	e["cpu_us_per_item"] = keptCPU * 1e6 / math.Max(1, keptItems)
	e["rss_mb"] = hwm

	L := res.layer
	L["tail.read_p90_ms"], L["tail.write_p90_ms"] = e["tail.read_p90_ms"], e["tail.write_p90_ms"]
	L["loadgen.late_p90_ms"] = percentile(late, 90)
	routeMS := func(routes ...string) float64 { return routeMSBetween(before, after, routes...) }
	L["serve.route_ms.read"] = routeMS("GET /v1/engine/chips/{id}")
	switch p.Workload {
	case "fleet-rw":
		L["serve.route_ms.write"] = routeMS("POST /v1/chips/{id}/stress", "POST /v1/chips/{id}/rejuvenate", "GET /v1/chips/{id}/measure")
	case "fleet-batch":
		L["serve.route_ms.write"] = routeMS("POST /v1/ops:batch")
	default:
		L["serve.route_ms.write"] = routeMS("POST /v1/engine/chips/{id}/condition")
	}
	// Batches over the whole run: setup's bulk loads plus any in the
	// window, so every workload exercises the bulk routes.
	var zero counters
	L["serve.route_ms.batch"] = routeMSBetween(zero, after, "POST /v1/ops:batch", "POST /v1/chips:batch", "POST /v1/engine/chips:batch")
	L["serve.route_ms.tick"] = routeMS("POST /v1/engine/tick")
	L["serve.resp_bytes_per_item"] = bytes / math.Max(1, items)
	if p.Workload != "engine-epochs" {
		L["chip.ramp_share"] = rampShare(p)
	} else {
		L["chip.ramp_share"] = 0
	}
	if a, b := after.m.Journal, before.m.Journal; a != nil && b != nil {
		fs := float64(a.FsyncCount - b.FsyncCount)
		L["journal.records_per_fsync"] = float64(a.Appends-b.Appends) / math.Max(1, fs)
		L["journal.fsync_ms_mean"] = (a.FsyncMeanMS*float64(a.FsyncCount) - b.FsyncMeanMS*float64(b.FsyncCount)) / math.Max(1, fs)
		L["journal.fsync_ms_max"] = a.FsyncMaxMS
		L["journal.compactions"] = float64(a.Compactions - b.Compactions)
		L["journal.records"] = float64(a.Records)
	}
	L["engine.tick_ms"] = percentile(tickS, 50) * 1000
	chips := float64(len(p.FleetSeeds) + len(p.Engine))
	if len(p.FleetSeeds) > 0 {
		chips++ // the headline chip
	}
	L["engine.ns_per_chip_epoch"] = percentile(tickS, 50) * 1e9 / chips
	if gd := after.m.Guard; gd != nil {
		L["guard.alerts"] = float64(gd.AlertsTotal)
		L["guard.quarantined"] = float64(gd.QuarantinedChips)
	}
	d := func(name string) float64 { return after.prom[name] - before.prom[name] }
	L["runtime.alloc_kb_per_item"] = d("go_memstats_alloc_bytes_total") / 1024 / math.Max(1, items)
	L["runtime.gc_cycles"] = d("go_gc_cycles_total")
	L["runtime.gc_pause_ms"] = d("go_gc_pause_seconds_total") * 1000
	L["runtime.heap_mb"] = after.prom["go_memstats_heap_alloc_bytes"] / (1 << 20)
}

func routeMSBetween(before, after counters, routes ...string) float64 {
	var n uint64
	var sum float64
	for _, rt := range routes {
		a := after.m.LatencyByRoute[rt]
		b := before.m.LatencyByRoute[rt]
		n += a.Count - b.Count
		sum += a.SumSeconds - b.SumSeconds
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n) * 1000
}

// rampShare is the share of the window's phase ops whose chamber
// temperature differs from the chip's previous phase — by design 0,
// since setup leaves every chip at 110 °C and every write stays there.
func rampShare(p *plan) float64 {
	var phases, ramps float64
	last := map[int]float64{}
	for i := range p.FleetSeeds {
		last[i] = writeTempC // setup's warm-up phase
	}
	visit := func(k kind, chip int) {
		if k != kStress && k != kRejuv {
			return
		}
		phases++
		if last[chip] != writeTempC {
			ramps++
		}
		last[chip] = writeTempC
	}
	for _, r := range p.Open {
		if r.Due >= p.Warmup {
			visit(r.Kind, r.Chip)
		}
	}
	for _, r := range p.Closed {
		for _, it := range r.Ops {
			visit(it.Op, it.Chip)
		}
	}
	if phases == 0 {
		return 0
	}
	return ramps / phases
}
