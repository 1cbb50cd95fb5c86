// Command bench-engine runs the engine tick benchmark and the
// per-epoch hooks benchmark (the serve layer's shared reduction, guard
// and telemetry recorder) at their three fleet sizes, the td
// batch-vs-scalar kernel benchmarks, the fleet-chip benchmarks
// (fabricating a bench, a 1 h DC stress phase, an averaged read, and
// the live heap a chip holds), the fleet replay benchmark (a 100-chip
// fleet's restart after 1k, 10k and 100k journaled ops) and the engine
// replay benchmark (a 10k-chip engine's restart after 1k, 4k and 16k
// epochs) and the engine checkpoint benchmark (one checkpoint of 10k,
// 100k and 1M chips), and writes the results as
// machine-readable JSON to BENCH_engine.json — the artifact `make
// bench` refreshes so perf regressions show up in review diffs instead
// of anecdotes. Run it as `GOMAXPROCS=1 make bench-engine`: the value
// is recorded, and the child benchmarks inherit it.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"runtime"
	"strconv"
	"strings"
)

// TickResult is one size point of BenchmarkEngineTick or
// BenchmarkEpochHooks (which reports no chips/sec).
type TickResult struct {
	Chips        int     `json:"chips"`
	NsPerChip    float64 `json:"ns_per_chip_epoch"`
	ChipsPerSec  float64 `json:"chips_per_sec,omitempty"`
	AllocsPerOp  float64 `json:"allocs_per_epoch"`
	BytesPerOp   float64 `json:"bytes_per_epoch"`
	NsPerEpoch   float64 `json:"ns_per_epoch"`
	BenchmarkRun string  `json:"benchmark"`
}

// KernelResult is one td-level kernel benchmark (the vectorized batch
// hot path vs the scalar model it must match).
type KernelResult struct {
	Name        string  `json:"benchmark"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

// ChipResult is the cost of one fleet-chip operation, from the
// internal/measure benchmarks.
type ChipResult struct {
	Name        string  `json:"benchmark"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

// ReplayResult is one BenchmarkFleetReplay point: the restart of a
// 100-chip bench fleet after Ops journaled ops.
type ReplayResult struct {
	Ops          int     `json:"ops"`
	ReplayMS     float64 `json:"replay_ms"`
	LiveRecords  float64 `json:"live_records"`
	CkptBytes    float64 `json:"checkpoint_bytes_per_chip"`
	BenchmarkRun string  `json:"benchmark"`
}

// EngineReplayResult is one BenchmarkEngineReplay point: the restart
// of a 10k-chip engine after Epochs epochs of ticking.
type EngineReplayResult struct {
	Epochs       int     `json:"epochs"`
	ReplayMS     float64 `json:"replay_ms"`
	LiveRecords  float64 `json:"live_records"`
	CkptBytes    float64 `json:"checkpoint_bytes_per_chip"`
	BenchmarkRun string  `json:"benchmark"`
}

// CheckpointResult is one BenchmarkEngineCheckpoint size point: the
// flush that encodes and commits a checkpoint under the tick lock, the
// encode alone, and the compaction after it under the journal lock.
type CheckpointResult struct {
	Chips        int     `json:"chips"`
	FlushMS      float64 `json:"flush_ms"`
	EncodeMS     float64 `json:"encode_ms"`
	CompactMS    float64 `json:"compact_ms"`
	CkptBytes    float64 `json:"checkpoint_bytes_per_chip"`
	BenchmarkRun string  `json:"benchmark"`
}

// Output is the BENCH_engine.json schema.
type Output struct {
	GoVersion   string         `json:"go_version"`
	GoMaxProcs  int            `json:"gomaxprocs"`
	EngineTick  []TickResult   `json:"engine_tick"`
	EpochHooks  []TickResult   `json:"epoch_hooks"`
	TdKernels   []KernelResult `json:"td_kernels"`
	BatchSpeedX float64        `json:"td_batch_speedup_x,omitempty"`
	Chip        []ChipResult   `json:"chip"`
	// ChipHeapBytes is the live heap one fabricated bench holds
	// (BenchmarkChipHeap: HeapAlloc after GC over 200 chips).
	ChipHeapBytes float64              `json:"chip_heap_bytes"`
	FleetReplay   []ReplayResult       `json:"fleet_replay"`
	EngineReplay  []EngineReplayResult `json:"engine_replay"`
	Checkpoint    []CheckpointResult   `json:"engine_checkpoint"`
}

var benchLine = regexp.MustCompile(`^(Benchmark\S+)\s+(\d+)\s+(.*)$`)

// metrics parses the "123 ns/op 4 B/op 5 allocs/op 97.3 ns/chip-epoch"
// tail of a benchmark line into unit → value.
func metrics(tail string) map[string]float64 {
	fields := strings.Fields(tail)
	out := make(map[string]float64, len(fields)/2)
	for i := 0; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			continue
		}
		out[fields[i+1]] = v
	}
	return out
}

func run(pattern, pkg, benchtime string) []byte {
	cmd := exec.Command("go", "test", "-run", "^$", "-bench", pattern,
		"-benchmem", "-benchtime", benchtime, pkg)
	var buf bytes.Buffer
	cmd.Stdout = &buf
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		fmt.Fprintf(os.Stderr, "bench-engine: %s on %s: %v\n%s", pattern, pkg, err, buf.String())
		os.Exit(1)
	}
	return buf.Bytes()
}

// sizes runs one chips=N benchmark family and parses its three size
// points.
func sizes(name, pkg, benchtime string) []TickResult {
	var rows []TickResult
	sc := bufio.NewScanner(bytes.NewReader(run(name, pkg, benchtime)))
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil || !strings.HasPrefix(m[1], name+"/") {
			continue
		}
		vals := metrics(m[3])
		var chips int
		if i := strings.Index(m[1], "chips="); i >= 0 {
			chips, _ = strconv.Atoi(strings.Split(m[1][i+6:], "-")[0])
		}
		rows = append(rows, TickResult{
			Chips:        chips,
			NsPerChip:    vals["ns/chip-epoch"],
			ChipsPerSec:  vals["chips/sec"],
			AllocsPerOp:  vals["allocs/op"],
			BytesPerOp:   vals["B/op"],
			NsPerEpoch:   vals["ns/op"],
			BenchmarkRun: m[1],
		})
	}
	if len(rows) != 3 {
		fmt.Fprintf(os.Stderr, "bench-engine: parsed %d %s sizes, want 3\n", len(rows), name)
		os.Exit(1)
	}
	return rows
}

func main() {
	out := flag.String("o", "BENCH_engine.json", "output path")
	benchtime := flag.String("benchtime", "", "go test -benchtime (default: 1x for the 1M-chip tick, 50x hooks, 100x kernels, 200x chip operations, 10x fleet replays, 1x engine replays, 3x checkpoints)")
	flag.Parse()

	tickTime, hookTime, kernelTime, chipTime, replayTime, engineReplayTime, ckptTime := "1x", "50x", "100x", "200x", "10x", "1x", "3x"
	if *benchtime != "" {
		tickTime, hookTime, kernelTime, chipTime, replayTime, engineReplayTime, ckptTime = *benchtime, *benchtime, *benchtime, *benchtime, *benchtime, *benchtime, *benchtime
	}

	res := Output{GoVersion: strings.TrimSpace(goVersion()), GoMaxProcs: runtime.GOMAXPROCS(0)}
	res.EngineTick = sizes("BenchmarkEngineTick", "./internal/engine", tickTime)
	res.EpochHooks = sizes("BenchmarkEpochHooks", "./internal/serve", hookTime)

	// The kernel pair: the vectorized batch advance vs the scalar loop
	// over identical fleets. The speedup reported is at the larger size.
	var scalarNs, batchNs float64
	sc := bufio.NewScanner(bytes.NewReader(run("BenchmarkAdvanceBatch|BenchmarkScalarLoop", "./internal/td", kernelTime)))
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		vals := metrics(m[3])
		kr := KernelResult{Name: m[1], NsPerOp: vals["ns/op"], AllocsPerOp: vals["allocs/op"]}
		if v, ok := vals["ns/chip-step"]; ok {
			// Normalize to the per-chip cost so scalar and batch compare.
			kr.NsPerOp = v
		}
		res.TdKernels = append(res.TdKernels, kr)
		if strings.Contains(m[1], "chips=65536") {
			switch {
			case strings.HasPrefix(m[1], "BenchmarkScalarLoop"):
				scalarNs = kr.NsPerOp
			case strings.HasPrefix(m[1], "BenchmarkAdvanceBatch"):
				batchNs = kr.NsPerOp
			}
		}
	}
	if scalarNs > 0 && batchNs > 0 {
		res.BatchSpeedX = scalarNs / batchNs
	}

	// The chip rows; the heap benchmark fabricates 200 chips per
	// iteration, so one iteration is its measurement.
	chipOut := run("BenchmarkNewBench|BenchmarkStressPhase|BenchmarkAveragedRead", "./internal/measure", chipTime)
	chipOut = append(chipOut, run("BenchmarkChipHeap", "./internal/measure", "1x")...)
	sc = bufio.NewScanner(bytes.NewReader(chipOut))
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		vals := metrics(m[3])
		if heap, ok := vals["heap-B/chip"]; ok {
			res.ChipHeapBytes = heap
			continue
		}
		res.Chip = append(res.Chip, ChipResult{
			Name: m[1], NsPerOp: vals["ns/op"], BytesPerOp: vals["B/op"], AllocsPerOp: vals["allocs/op"],
		})
	}
	if len(res.Chip) != 3 || res.ChipHeapBytes == 0 {
		fmt.Fprintf(os.Stderr, "bench-engine: parsed %d chip rows and heap %v, want 3 and a heap figure\n", len(res.Chip), res.ChipHeapBytes)
		os.Exit(1)
	}

	sc = bufio.NewScanner(bytes.NewReader(run("BenchmarkFleetReplay", "./internal/fleet", replayTime)))
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		vals := metrics(m[3])
		var ops int
		if i := strings.Index(m[1], "ops="); i >= 0 {
			ops, _ = strconv.Atoi(strings.Split(m[1][i+4:], "-")[0])
		}
		res.FleetReplay = append(res.FleetReplay, ReplayResult{
			Ops: ops, ReplayMS: vals["ns/op"] / 1e6, LiveRecords: vals["records"],
			CkptBytes: vals["ckpt-B/chip"], BenchmarkRun: m[1],
		})
	}
	if len(res.FleetReplay) != 3 {
		fmt.Fprintf(os.Stderr, "bench-engine: parsed %d fleet replay rows, want 3\n", len(res.FleetReplay))
		os.Exit(1)
	}

	sc = bufio.NewScanner(bytes.NewReader(run("BenchmarkEngineReplay", "./internal/engine", engineReplayTime)))
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		vals := metrics(m[3])
		var epochs int
		if i := strings.Index(m[1], "epochs="); i >= 0 {
			epochs, _ = strconv.Atoi(strings.Split(m[1][i+7:], "-")[0])
		}
		res.EngineReplay = append(res.EngineReplay, EngineReplayResult{
			Epochs: epochs, ReplayMS: vals["ns/op"] / 1e6, LiveRecords: vals["records"],
			CkptBytes: vals["ckpt-B/chip"], BenchmarkRun: m[1],
		})
	}
	if len(res.EngineReplay) != 3 {
		fmt.Fprintf(os.Stderr, "bench-engine: parsed %d engine replay rows, want 3\n", len(res.EngineReplay))
		os.Exit(1)
	}

	sc = bufio.NewScanner(bytes.NewReader(run("BenchmarkEngineCheckpoint", "./internal/engine", ckptTime)))
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		vals := metrics(m[3])
		var chips int
		if i := strings.Index(m[1], "chips="); i >= 0 {
			chips, _ = strconv.Atoi(strings.Split(m[1][i+6:], "-")[0])
		}
		res.Checkpoint = append(res.Checkpoint, CheckpointResult{
			Chips: chips, FlushMS: vals["ns/op"] / 1e6, EncodeMS: vals["encode-ms"],
			CompactMS: vals["compact-ms"], CkptBytes: vals["ckpt-B/chip"], BenchmarkRun: m[1],
		})
	}
	if len(res.Checkpoint) != 3 {
		fmt.Fprintf(os.Stderr, "bench-engine: parsed %d engine checkpoint rows, want 3\n", len(res.Checkpoint))
		os.Exit(1)
	}

	f, err := os.Create(*out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench-engine:", err)
		os.Exit(1)
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(res); err != nil {
		fmt.Fprintln(os.Stderr, "bench-engine:", err)
		os.Exit(1)
	}
	if err := f.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "bench-engine:", err)
		os.Exit(1)
	}
	fmt.Printf("bench-engine: wrote %s (%d tick sizes, %d hook sizes, %d kernels, %d chip rows + heap, %d fleet replays, %d engine replays, %d checkpoint sizes", *out, len(res.EngineTick), len(res.EpochHooks), len(res.TdKernels), len(res.Chip), len(res.FleetReplay), len(res.EngineReplay), len(res.Checkpoint))
	if res.BatchSpeedX > 0 {
		fmt.Printf(", batch %.2fx scalar", res.BatchSpeedX)
	}
	fmt.Println(")")
}

func goVersion() string {
	out, err := exec.Command("go", "version").Output()
	if err != nil {
		return ""
	}
	return string(out)
}
