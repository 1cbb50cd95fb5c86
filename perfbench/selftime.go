package main

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"time"
)

// selfRow is one line of the self-time table: a layer's time summed
// over the traced window's requests.
type selfRow struct {
	Layer    string
	TotalMS  float64
	PerReqMS float64
	Share    float64
}

var selfLayers = []string{"loadgen", "serve", "fleet", "chip", "store", "engine", "td", "hooks", "unattributed"}

// selfTimes splits the traced window's end-to-end time into layer self
// times (span minus children). Per request of kind k:
//
//   - loadgen: due → response minus the ServeHTTP span (lateness,
//     loopback transport, both HTTP stacks);
//   - store: the time the request spent inside its own store spans
//     (the union of their intervals; measured). Commits the engine's
//     event pump makes for a waiting request run under the pump's own
//     context, so they land in unattributed;
//   - serve: median ServeHTTP for k minus the median direct call of
//     the same kind into fleet/engine (pass two);
//   - chip: median selfheal.Chip op time (pass three);
//   - fleet: median direct fleet call minus its store and chip parts;
//   - engine, td, hooks: the median direct engine call, a tick split
//     into td.AdvanceBatch, the guard/telemetry hooks and the engine's
//     own bookkeeping;
//   - unattributed: the ServeHTTP time the per-kind medians leave
//     unexplained — the spans' tails (their mean above their median:
//     contention with concurrent requests, GC) less any store time the
//     window spent below the direct pass's median. It can be negative.
//
// A batch's items run on GOMAXPROCS workers and chip time has no span
// of its own inside the program, so a batch's chip part counts at
// 1/GOMAXPROCS of its items' summed chip time.
func selfTimes(p *plan, res *runResult, rec *recorder, ps *passStats, L map[string]float64) []selfRow {
	serveSpan := map[string]float64{}
	storeIv := map[string][][2]time.Duration{}
	rec.mu.Lock()
	for _, s := range rec.spans {
		switch {
		case s.Req == "":
		case s.Name == "serve.http":
			serveSpan[s.Req] += msOf(s.dur())
		case s.Name == "store.commit":
			storeIv[s.Req] = append(storeIv[s.Req], [2]time.Duration{s.Start, s.End})
		}
	}
	rec.mu.Unlock()

	var window []record
	byKind := map[kind][]float64{}
	var commits []float64
	for _, r := range res.recs {
		if r.ReqID == "" || !inWindow(r, p.Warmup) {
			continue
		}
		window = append(window, r)
		byKind[r.Kind] = append(byKind[r.Kind], serveSpan[r.ReqID])
	}
	// Store commits over the window: those the window's requests ran,
	// and those run off the request path while it lasted — the
	// engine's event pump commits under its own context.
	inWin := map[string]bool{}
	for _, r := range window {
		inWin[r.ReqID] = true
	}
	from, to := time.Duration(math.MaxInt64), time.Duration(0)
	rec.mu.Lock()
	for _, s := range rec.spans {
		if s.Name == "serve.http" && inWin[s.Req] {
			from, to = min(from, s.Start), max(to, s.End)
		}
	}
	for _, s := range rec.spans {
		if s.Name == "store.commit" && (inWin[s.Req] || s.Req == "" && s.Start >= from && s.End <= to) {
			commits = append(commits, msOf(s.dur()))
		}
	}
	rec.mu.Unlock()
	L["store.commit_ms_p50"] = percentile(commits, 50)
	L["store.commit_ms_p90"] = percentile(commits, 90)

	workers := float64(runtime.GOMAXPROCS(0))
	med := func(xs []float64) float64 { return percentile(xs, 50) }
	t := map[string]float64{}
	var total, serveOver, serveN float64
	for _, r := range window {
		k := r.Kind
		e2e := msOf(r.latency())
		srv := serveSpan[r.ReqID]
		total += e2e
		t["loadgen"] += e2e - srv
		storeR := msOf(unionLength(storeIv[r.ReqID]))
		direct := med(ps.direct[k])
		serveSelf := math.Max(0, med(byKind[k])-direct)
		var parts float64
		switch k {
		case kRead:
			parts = direct
			t["engine"] += direct
		case kStress, kRejuv, kMeasure:
			chip := med(ps.chip[k])
			fleet := math.Max(0, direct-med(ps.store[k])-chip)
			t["chip"] += chip
			t["fleet"] += fleet
			parts = chip + fleet
		case kBatch:
			var chip float64
			for _, it := range p.Closed[r.Tag].Ops {
				chip += med(ps.chip[it.Op])
			}
			chip /= workers
			fleet := math.Max(0, direct-med(ps.store[kBatch])-chip)
			t["chip"] += chip
			t["fleet"] += fleet
			parts = chip + fleet
		case kTick:
			hooks := med(ps.hooks)
			eng := math.Max(0, direct-hooks-ps.tdPerMS-med(ps.store[kTick]))
			t["hooks"] += hooks
			t["td"] += ps.tdPerMS
			t["engine"] += eng
			parts = hooks + ps.tdPerMS + eng
		case kCond:
			eng := math.Max(0, direct-med(ps.store[kCond]))
			t["engine"] += eng
			parts = eng
		case kScrape:
			serveSelf = med(byKind[k])
		}
		if k != kScrape {
			serveOver += serveSelf
			serveN++
		}
		t["serve"] += serveSelf
		t["store"] += storeR
		t["unattributed"] += srv - serveSelf - parts - storeR
	}
	n := math.Max(1, float64(len(window)))
	L["serve.overhead_us"] = serveOver / math.Max(1, serveN) * 1000
	rows := make([]selfRow, 0, len(selfLayers))
	for _, layer := range selfLayers {
		row := selfRow{Layer: layer, TotalMS: t[layer], PerReqMS: t[layer] / n}
		if total > 0 {
			row.Share = t[layer] / total
		}
		rows = append(rows, row)
		L["self."+layer+"_ms"] = row.PerReqMS
	}
	return rows
}

func printSelfTimes(w io.Writer, rows []selfRow) {
	fmt.Fprintf(w, "%-14s %14s %14s %8s\n", "self time", "total ms", "ms/request", "share")
	var sum float64
	for _, r := range rows {
		fmt.Fprintf(w, "%-14s %14.3f %14.4f %7.1f%%\n", r.Layer, r.TotalMS, r.PerReqMS, 100*r.Share)
		sum += r.TotalMS
	}
	fmt.Fprintf(w, "%-14s %14.3f\n", "end-to-end", sum)
}
