package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
)

// benchBounds reads each end-to-end metric's bound from BENCHMARK.json
// in the working directory (the repository root).
func benchBounds() map[string]float64 {
	var spec struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	b, err := os.ReadFile("BENCHMARK.json")
	if err != nil || json.Unmarshal(b, &spec) != nil {
		return nil
	}
	out := map[string]float64{}
	for _, m := range spec.EndToEnd {
		out[m.Name] = m.Bound
	}
	return out
}

// steady repeats one workload with seeds seed, seed+1, … and prints
// each end-to-end metric's median, quartiles, spread (IQR ÷ median)
// and largest deviation from the median against its bound. A spread
// under a third of the bound is the target. Each repeat is a fresh
// process, as every run of the benchmark is: a warm process measures
// differently from a cold one.
func steady(o options) error {
	vals := map[string][]float64{}
	for i := 0; i < o.repeat; i++ {
		seed := o.seed + uint64(i)
		var out bytes.Buffer
		cmd := exec.Command(os.Args[0], "-server", o.server, "-work", o.work,
			"-workload", o.workload, "-seed", strconv.FormatUint(seed, 10),
			"-seconds", strconv.Itoa(o.seconds), "-trace", "0")
		cmd.Stdout, cmd.Stderr = &out, os.Stderr
		// A killed parent takes the run down too (its own handler then
		// kills its servers).
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGTERM}
		err := cmd.Run()
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var res result
		if jerr := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil || jerr != nil || !res.Correct {
			fmt.Fprint(o.out, out.String())
			return fmt.Errorf("seed %d: run failed (%v)", seed, err)
		}
		for _, l := range lines {
			if strings.HasPrefix(l, "== ") {
				fmt.Fprintln(o.out, l)
			}
		}
		line := fmt.Sprintf("seed %d:", seed)
		for _, d := range e2eDefs {
			v := res.Metrics[d.Name].Value
			vals[d.Name] = append(vals[d.Name], v)
			line += fmt.Sprintf(" %s=%s", d.Name, fmtFloat(v))
		}
		fmt.Fprintln(o.out, line)
	}
	bounds := benchBounds()
	fmt.Fprintf(o.out, "\n== steadiness: %s, %d runs, seeds %d..%d\n", o.workload, o.repeat, o.seed, o.seed+uint64(o.repeat)-1)
	fmt.Fprintf(o.out, "%-16s %12s %12s %12s %8s %8s %8s %s\n", "metric", "q1", "median", "q3", "spread", "maxdev", "bound", "verdict")
	for _, d := range e2eDefs {
		xs := vals[d.Name]
		q1, q2, q3 := quartiles(xs)
		var maxDev float64
		for _, x := range xs {
			maxDev = math.Max(maxDev, math.Abs(x-q2)/math.Abs(q2))
		}
		sp := spread(xs)
		bound, ok := bounds[d.Name]
		verdict := "-"
		if ok {
			verdict = "ok"
			if sp >= bound/3 {
				verdict = "NOISY"
			}
		}
		fmt.Fprintf(o.out, "%-16s %12s %12s %12s %7.1f%% %7.1f%% %7.1f%% %s\n",
			d.Name, fmtFloat(q1), fmtFloat(q2), fmtFloat(q3), 100*sp, 100*maxDev, 100*bound, verdict)
	}
	return nil
}
