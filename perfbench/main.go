// Command perfbench is the repository benchmark: it drives the real
// selfheal-serve binary over loopback HTTP with three workloads
// (fleet-rw, fleet-batch, engine-epochs), checks the service's outputs,
// and prints end-to-end metrics — or, with -trace 1, a per-layer
// breakdown from a second, traced run that hosts the same packages
// in-process. README.md records why each workload exists and what it
// loads; run.sh builds both programs from the checkout and runs this.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload fleet-rw --seed 1 --seconds 10 --trace 0
//	bash perfbench/run.sh --workload all --seed 1
//	bash perfbench/run.sh --workload engine-epochs --repeat 5
//
// The last line of standard output is one JSON object: {"correct",
// "attempted", "failed", "metrics"}. A failed output check exits 1.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"regexp"
	"strings"
	"syscall"
	"time"
)

// metricDef names one reported metric.
type metricDef struct {
	Name, Unit string
}

// e2eDefs are the end-to-end metrics every workload reports and
// BENCHMARK.json bounds. The p90 latencies are measured and printed
// beside them but reported as per-layer metrics (tail.*): on the
// reference host they swing with the hypervisor's CPU steal beyond any
// allowed bound. error_rate is printed in the table but carried in the
// result's attempted/failed counts rather than as a metric: it is 0 on
// a healthy run, and a metric must never be 0.
var e2eDefs = []metricDef{
	{"setup_s", "s"},
	{"read_p50_ms", "ms"},
	{"write_p50_ms", "ms"},
	{"epoch_p50_ms", "ms"},
	{"items_per_s", "1/s"},
	{"cpu_us_per_item", "us"},
	{"rss_mb", "MiB"},
	{"restart_s", "s"},
}

var (
	errorRateDef = metricDef{"error_rate", "ratio"}
	tailDefs     = []metricDef{{"tail.read_p90_ms", "ms"}, {"tail.write_p90_ms", "ms"}}
)

// layerDefs are the per-layer metrics a -trace 1 run reports.
var layerDefs = []metricDef{
	{"tail.read_p90_ms", "ms"},
	{"tail.write_p90_ms", "ms"},
	{"loadgen.late_p90_ms", "ms"},
	{"serve.route_ms.read", "ms"},
	{"serve.route_ms.write", "ms"},
	{"serve.route_ms.batch", "ms"},
	{"serve.route_ms.tick", "ms"},
	{"serve.overhead_us", "us"},
	{"serve.resp_bytes_per_item", "bytes"},
	{"fleet.op_ms", "ms"},
	{"fleet.batch_ms_per_item", "ms"},
	{"fleet.replay_s", "s"},
	{"chip.fabricate_ms", "ms"},
	{"chip.phase_ms", "ms"},
	{"chip.measure_ms", "ms"},
	{"chip.ramp_share", "ratio"},
	{"store.commit_ms_p50", "ms"},
	{"store.commit_ms_p90", "ms"},
	{"journal.records_per_fsync", "ratio"},
	{"journal.fsync_ms_mean", "ms"},
	{"journal.fsync_ms_max", "ms"},
	{"journal.compactions", "count"},
	{"journal.records", "count"},
	{"journal.bytes_per_record", "bytes"},
	{"engine.tick_ms", "ms"},
	{"engine.ns_per_chip_epoch", "ns"},
	{"engine.hooks_ms", "ms"},
	{"engine.event_ms", "ms"},
	{"engine.register_us_per_chip", "us"},
	{"engine.replay_s", "s"},
	{"td.ns_per_chip", "ns"},
	{"guard.alerts", "count"},
	{"guard.quarantined", "count"},
	{"runtime.alloc_kb_per_item", "KiB"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"runtime.heap_mb", "MiB"},
	{"self.loadgen_ms", "ms"},
	{"self.serve_ms", "ms"},
	{"self.fleet_ms", "ms"},
	{"self.chip_ms", "ms"},
	{"self.store_ms", "ms"},
	{"self.engine_ms", "ms"},
	{"self.td_ms", "ms"},
	{"self.hooks_ms", "ms"},
	{"self.unattributed_ms", "ms"},
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func validName(s string) bool { return nameRE.MatchString(s) }
func validUnit(s string) bool { return unitRE.MatchString(s) }

// value is one metric in the result line.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final JSON line.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    int
	repeat   int
	server   string
	work     string
	out      io.Writer
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "fleet-rw, fleet-batch, engine-epochs, or all")
	flag.Uint64Var(&o.seed, "seed", 1, "workload seed: the same seed gives byte-identical schedules")
	flag.IntVar(&o.seconds, "seconds", 10, "measured window per run, warm-up excluded")
	flag.IntVar(&o.trace, "trace", 0, "1: also run the traced in-process host and report per-layer metrics")
	flag.IntVar(&o.repeat, "repeat", 0, "steadiness mode: run the workload this many times (seeds seed, seed+1, …) and print each metric's spread")
	flag.StringVar(&o.server, "server", "", "prebuilt selfheal-serve binary")
	flag.StringVar(&o.work, "work", ".bench_build", "scratch directory for journals, logs and spans")
	flag.Parse()
	o.out = os.Stdout
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		killAll()
		os.Exit(130)
	}()
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	if o.server == "" {
		return fmt.Errorf("-server is required (run.sh builds it)")
	}
	if o.seconds < 1 {
		return fmt.Errorf("-seconds must be ≥ 1")
	}
	if o.trace != 0 && o.trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1")
	}
	for _, d := range append(append([]metricDef{errorRateDef}, e2eDefs...), layerDefs...) {
		if !validName(d.Name) || !validUnit(d.Unit) {
			return fmt.Errorf("metric %q (unit %q) breaks the naming rules", d.Name, d.Unit)
		}
	}
	workDir, err := filepath.Abs(filepath.Join(o.work, fmt.Sprintf("run-%d", os.Getpid())))
	if err != nil {
		return err
	}
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(workDir)
	names := []string{o.workload}
	if o.workload == "all" {
		names = workloadNames
	}
	if o.repeat > 0 {
		if len(names) != 1 {
			return fmt.Errorf("-repeat needs a single workload")
		}
		return steady(o)
	}
	final := result{Correct: true, Metrics: map[string]value{}}
	for _, name := range names {
		res, err := runOne(o, name, o.seed, workDir)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		final.Attempted += res.attempted
		final.Failed += res.failed
		final.Correct = final.Correct && len(res.checks) == 0 && res.failed == 0
		for k, v := range res.metrics {
			if len(names) > 1 {
				k = name + "." + k
			}
			final.Metrics[k] = v
		}
	}
	b, _ := json.Marshal(final)
	fmt.Fprintln(o.out, string(b))
	if !final.Correct {
		os.Exit(1)
	}
	return nil
}

// oneResult is a single workload's reportable outcome.
type oneResult struct {
	*runResult
	metrics map[string]value
}

// runOne runs one workload once: untraced, and with -trace 1 traced
// as well.
func runOne(o options, name string, seed uint64, workDir string) (*oneResult, error) {
	p, err := makePlan(name, seed, time.Duration(o.seconds)*time.Second)
	if err != nil {
		return nil, err
	}
	newHost := func() host {
		return &execHost{bin: o.server, logPath: filepath.Join(workDir, "server.log")}
	}
	// A traced run's untraced half sets up once: setup_s is not among
	// its metrics, and the traced half must fit the same time limit.
	setups := setupRepeats
	if o.trace == 1 {
		setups = 1
	}
	res, err := runWorkload(p, newHost, workDir, runOpts{setups: setups, restart: true})
	if err != nil {
		return nil, err
	}
	out := &oneResult{runResult: res, metrics: map[string]value{}}
	steal := res.stealAt[len(res.stealAt)-1] - res.stealAt[0]
	fmt.Fprintf(o.out, "\n== %s  seed %d  schedule %s  window %.2fs  requests %d  failed %d  setups %.3v s  server GCs %.0f  host steal %.2f CPU-s  kept slices %d/%d\n",
		name, seed, scheduleID(p), res.window.Seconds(), res.attempted, res.failed, res.setups, res.layer["runtime.gc_cycles"], steal, res.kept, len(res.stealAt)-1)
	fmt.Fprintf(o.out, "samples: %d reads, %d writes, %d ticks\n", res.samples[0], res.samples[1], res.samples[2])
	for _, c := range res.checks {
		fmt.Fprintln(o.out, "CHECK FAILED:", c)
	}
	if o.trace == 0 {
		printE2E(o.out, res, nil)
		for _, d := range e2eDefs {
			out.metrics[d.Name] = value{res.e2e[d.Name], d.Unit}
		}
		return out, nil
	}
	tr, err := tracedRun(p, workDir)
	if err != nil {
		return nil, fmt.Errorf("traced run: %w", err)
	}
	printE2E(o.out, res, tr.res)
	for k, v := range tr.layer {
		res.layer[k] = v
	}
	printLayers(o.out, res.layer)
	printSelfTimes(o.out, tr.self)
	for _, d := range layerDefs {
		out.metrics[d.Name] = value{res.layer[d.Name], d.Unit}
	}
	out.checks = append(out.checks, tr.res.checks...)
	return out, nil
}

// scheduleID is a short digest of the plan: equal IDs mean the same
// requests were sent.
func scheduleID(p *plan) string {
	sum := sha256.Sum256(p.encode())
	return fmt.Sprintf("%x", sum[:6])
}

func printE2E(w io.Writer, res, traced *runResult) {
	fmt.Fprintf(w, "%-18s %-6s %14s", "end-to-end", "unit", "untraced")
	if traced != nil {
		fmt.Fprintf(w, " %14s", "traced")
	}
	fmt.Fprintln(w)
	for _, d := range append(append(append([]metricDef(nil), e2eDefs...), tailDefs...), errorRateDef) {
		fmt.Fprintf(w, "%-18s %-6s %14.4f", d.Name, d.Unit, res.e2e[d.Name])
		if traced != nil {
			fmt.Fprintf(w, " %14.4f", traced.e2e[d.Name])
		}
		fmt.Fprintln(w)
	}
}

func printLayers(w io.Writer, layer map[string]float64) {
	fmt.Fprintf(w, "%-28s %-6s %14s\n", "per-layer", "unit", "value")
	for _, d := range layerDefs {
		if strings.HasPrefix(d.Name, "self.") {
			continue
		}
		fmt.Fprintf(w, "%-28s %-6s %14.4f\n", d.Name, d.Unit, layer[d.Name])
	}
}

// fmtFloat renders a value for the tables with all its digits.
func fmtFloat(v float64) string {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return "n/a"
	}
	return fmt.Sprintf("%.6g", v)
}
