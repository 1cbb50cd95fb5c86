package main

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"sort"
	"time"
)

// kind is one request type the generator sends.
type kind uint8

const (
	kRead    kind = iota // GET /v1/engine/chips/{id}: snapshot view
	kStress              // POST /v1/chips/{id}/stress
	kRejuv               // POST /v1/chips/{id}/rejuvenate
	kMeasure             // GET /v1/chips/{id}/measure (journaled)
	kBatch               // POST /v1/ops:batch
	kTick                // POST /v1/engine/tick, then GET /v1/engine
	kScrape              // GET /metrics?format=prometheus
	kCond                // POST /v1/engine/chips/{id}/condition
	numKinds
)

var kindNames = [numKinds]string{"read", "stress", "rejuvenate", "measure", "batch", "tick", "scrape", "condition"}

func (k kind) String() string { return kindNames[k] }

// isChipOp reports whether k is a single fleet chip operation.
func (k kind) isChipOp() bool { return k == kStress || k == kRejuv || k == kMeasure }

// The phase corners every fleet write uses. All of them sit at 110 °C,
// the temperature setup leaves every chip at, so no write in the
// window pays the unpowered chamber ramp.
const (
	writeTempC   = 110
	stressVdd    = 1.2
	rejuvVdd     = -0.3
	phaseHours   = 1
	batchSize    = 64
	flushEpochs  = 16 // the engine's default journal flush window
	epochHours   = 0.5
	headlineSeed = 7
	headlineID   = "headline"
)

// item is one fleet chip operation, standalone or inside a batch.
type item struct {
	Op   kind `json:"op"`
	Chip int  `json:"chip"`
}

// request is one scheduled request. Due is the offset from the start
// of the load at which an open-loop request is sent; closed-loop
// requests carry no due time and go out as soon as the previous reply
// is in.
type request struct {
	Due  time.Duration `json:"due,omitempty"`
	Kind kind          `json:"kind"`
	Chip int           `json:"chip,omitempty"`
	Duty float64       `json:"duty,omitempty"` // kCond: the new duty cycle
	Prev float64       `json:"prev,omitempty"` // kCond: the duty it replaces
	Ops  []item        `json:"ops,omitempty"`  // kBatch
	Tag  int           `json:"tag"`            // index in its list
	Lane int           `json:"lane,omitempty"` // 0: open loop, 1: closed loop
}

// engineChip is one engine-native chip registered in engine-epochs
// setup: BenchmarkEngineTick's five-way condition mix.
type engineChip struct {
	ID       string  `json:"id"`
	Phase    string  `json:"phase,omitempty"`
	TempC    float64 `json:"temp_c"`
	Vdd      float64 `json:"vdd"`
	Duty     float64 `json:"duty"`
	Schedule bool    `json:"schedule,omitempty"` // 16 stress / 8 sleep epochs at 40 °C / −0.3 V
}

// plan is everything one run sends, generated up front from the seed.
type plan struct {
	Workload string        `json:"workload"`
	Seed     uint64        `json:"seed"`
	Warmup   time.Duration `json:"warmup"`
	Window   time.Duration `json:"window"`

	// FleetSeeds are the fleet chips' fabrication seeds (fleet-*);
	// chip i is fleetID(i).
	FleetSeeds []uint64 `json:"fleet_seeds,omitempty"`
	// Engine are the engine-native chips (engine-epochs).
	Engine []engineChip `json:"engine,omitempty"`

	// Open are the open-loop requests in due order, served by
	// OpenLanes connections; Closed are sent back to back on a
	// connection of their own (closed loop) until the window ends.
	Open      []request `json:"open"`
	OpenLanes int       `json:"open_lanes"`
	Closed    []request `json:"closed,omitempty"`

	// Stable are engine chips whose condition the run never changes,
	// sampled for the physics check (engine-epochs).
	Stable []int `json:"stable,omitempty"`
}

func fleetID(i int) string  { return fmt.Sprintf("c%04d", i) }
func engineID(i int) string { return fmt.Sprintf("e%06d", i) }

// encode is the plan's canonical byte form: equal seeds must give
// byte-identical encodings.
func (p *plan) encode() []byte {
	b, err := json.Marshal(p)
	if err != nil {
		panic(err) // plain data; cannot fail
	}
	return b
}

// workloadParams are the tuned rates and sizes (see README.md).
type workloadParams struct {
	FleetChips  int // fleet-*: bench chips fabricated in setup
	EngineChips int // engine-epochs: engine-native chips
	ReqRate     int // fleet-rw: open-loop requests per second (even; writes a multiple of 3)
	ReadRate    int // fleet-batch, engine-epochs: chip-view reads per second
	CondRate    int // engine-epochs: condition changes per second
	TickEvery   time.Duration
	ScrapeEvery time.Duration
	Warmup      time.Duration
}

var params = map[string]workloadParams{
	"fleet-rw": {
		FleetChips: 500, ReqRate: 150,
		TickEvery: 500 * time.Millisecond, ScrapeEvery: time.Second,
		Warmup: time.Second,
	},
	"fleet-batch": {
		FleetChips: 100, ReadRate: 100,
		TickEvery: 50 * time.Millisecond,
		Warmup:    time.Second,
	},
	"engine-epochs": {
		EngineChips: 10_000, ReadRate: 200, CondRate: 50,
		Warmup: time.Second,
	},
}

// workloadNames are every workload perfbench runs; gatedWorkloads
// are the ones BENCHMARK.json gates changes on. fleet-rw's sub-ms
// latencies move with the host's CPU steal far beyond any bound (see
// README.md), so it is run by hand and not gated.
var (
	workloadNames  = []string{"fleet-rw", "fleet-batch", "engine-epochs"}
	gatedWorkloads = []string{"fleet-batch", "engine-epochs"}
)

// newRand is the plan's one randomness source: PCG is specified
// bit-for-bit, so a seed means the same schedule on every Go release.
func newRand(seed uint64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, 0x5e1f_4ea1_0000_0000|stream))
}

// poissonTimes returns n arrival offsets of a Poisson process over
// [start, start+span), conditioned on exactly n arrivals (sorted
// uniform order statistics from normalized exponential gaps), so a
// run's offered load does not depend on the seed.
func poissonTimes(r *rand.Rand, n int, start, span time.Duration) []time.Duration {
	gaps := make([]float64, n+1)
	var total float64
	for i := range gaps {
		gaps[i] = r.ExpFloat64()
		total += gaps[i]
	}
	out := make([]time.Duration, n)
	var acc float64
	for i := 0; i < n; i++ {
		acc += gaps[i]
		out[i] = start + time.Duration(acc/total*float64(span))
	}
	return out
}

// arrivals returns Poisson arrival offsets over [0, span) at perSecond,
// with exactly perSecond of them in every second, so every slice of
// the window is offered the same load whatever the seed.
func arrivals(r *rand.Rand, perSecond int, span time.Duration) []time.Duration {
	var out []time.Duration
	for t := time.Duration(0); t < span; t += time.Second {
		out = append(out, poissonTimes(r, perSecond, t, min(time.Second, span-t))...)
	}
	return out
}

// periodic returns offsets every step over [start, end).
func periodic(start, end, step time.Duration) []time.Duration {
	var out []time.Duration
	for t := start; t < end; t += step {
		out = append(out, t)
	}
	return out
}

// fleetWrite draws one fleet write: stress, rejuvenate and measure in
// equal shares.
func fleetWrite(r *rand.Rand, chips int) item {
	return item{Op: []kind{kStress, kRejuv, kMeasure}[r.IntN(3)], Chip: r.IntN(chips)}
}

// makePlan generates a workload's whole schedule from the seed.
func makePlan(workload string, seed uint64, window time.Duration) (*plan, error) {
	wp, ok := params[workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", workload, workloadNames)
	}
	p := &plan{Workload: workload, Seed: seed, Warmup: wp.Warmup, Window: window, OpenLanes: 1}
	span := wp.Warmup + window
	if wp.FleetChips > 0 {
		r := newRand(seed, 1)
		p.FleetSeeds = make([]uint64, wp.FleetChips)
		for i := range p.FleetSeeds {
			p.FleetSeeds[i] = r.Uint64() >> 1 // JSON-safe, any value is a valid seed
		}
	}
	r := newRand(seed, 2)
	switch workload {
	case "fleet-rw":
		p.OpenLanes = 2
		// Every second gets exact counts: half reads, and the writes
		// split into equal thirds, so each slice's work does not
		// depend on the seed.
		ts := arrivals(r, wp.ReqRate, span)
		for sec := 0; sec < len(ts); sec += wp.ReqRate {
			kinds := make([]kind, wp.ReqRate)
			for i := range kinds {
				kinds[i] = kRead
				if i%2 == 1 {
					kinds[i] = []kind{kStress, kRejuv, kMeasure}[(i/2)%3]
				}
			}
			r.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
			for i, t := range ts[sec : sec+wp.ReqRate] {
				p.Open = append(p.Open, request{Due: t, Kind: kinds[i], Chip: r.IntN(wp.FleetChips)})
			}
		}
		for _, t := range periodic(wp.TickEvery/2, span, wp.TickEvery) {
			p.Open = append(p.Open, request{Due: t, Kind: kTick})
		}
		for _, t := range periodic(wp.ScrapeEvery/4, span, wp.ScrapeEvery) {
			p.Open = append(p.Open, request{Due: t, Kind: kScrape})
		}
	case "fleet-batch":
		for _, t := range arrivals(r, wp.ReadRate, span) {
			p.Open = append(p.Open, request{Due: t, Kind: kRead, Chip: r.IntN(wp.FleetChips)})
		}
		for _, t := range periodic(wp.TickEvery/2, span, wp.TickEvery) {
			p.Open = append(p.Open, request{Due: t, Kind: kTick})
		}
		// Far more batches than any run completes; the closed loop
		// stops at the end of the window.
		nb := int(span.Seconds()*40) + 64
		perm := make([]int, wp.FleetChips)
		for i := range perm {
			perm[i] = i
		}
		for b := 0; b < nb; b++ {
			ops := make([]item, batchSize)
			for j := range ops {
				// Partial Fisher–Yates: no chip twice in a batch.
				k := j + r.IntN(len(perm)-j)
				perm[j], perm[k] = perm[k], perm[j]
				ops[j] = item{Op: []kind{kStress, kRejuv, kMeasure}[r.IntN(3)], Chip: perm[j]}
			}
			p.Closed = append(p.Closed, request{Kind: kBatch, Ops: ops})
		}
	case "engine-epochs":
		p.Engine = make([]engineChip, wp.EngineChips)
		for i := range p.Engine {
			c := engineChip{ID: engineID(i), TempC: 80, Vdd: 1.2, Duty: 1}
			switch i % 5 {
			case 1:
				c.Duty = 0.5
			case 2:
				c.TempC, c.Vdd = 105, 1.32
			case 3:
				c.Schedule = true
			case 4:
				c.Phase, c.TempC, c.Vdd = "sleep", 45, -0.25
			}
			p.Engine[i] = c
		}
		reads := arrivals(r, wp.ReadRate, span)
		conds := arrivals(r, wp.CondRate, span)
		for _, t := range reads {
			p.Open = append(p.Open, request{Due: t, Kind: kRead, Chip: r.IntN(wp.EngineChips)})
		}
		// Condition changes toggle chips of the two mildest corners
		// (80 °C / 1.2 V at duty 1 and duty 0.5) between each other:
		// both share one condition class, so the class layout stays
		// put while every change still goes through the event pump.
		duty := map[int]float64{}
		for _, t := range conds {
			c := 5*r.IntN(wp.EngineChips/5) + r.IntN(2)
			cur, seen := duty[c]
			if !seen {
				cur = p.Engine[c].Duty
			}
			next := 1.5 - cur // 1 ↔ 0.5
			duty[c] = next
			p.Open = append(p.Open, request{Due: t, Kind: kCond, Chip: c, Duty: next, Prev: cur})
		}
		// Physics sample: chips of the four schedule-free classes the
		// run never touches.
		for len(p.Stable) < 64 {
			c := r.IntN(wp.EngineChips)
			if _, changed := duty[c]; changed || c%5 == 3 {
				continue
			}
			p.Stable = append(p.Stable, c)
			duty[c] = -1 // no duplicates in the sample
		}
		sort.Ints(p.Stable)
		nt := int(span.Seconds()*200) + 64
		for i := 0; i < nt; i++ {
			p.Closed = append(p.Closed, request{Kind: kTick})
		}
	}
	sort.SliceStable(p.Open, func(i, j int) bool { return p.Open[i].Due < p.Open[j].Due })
	for i := range p.Open {
		p.Open[i].Tag = i
	}
	for i := range p.Closed {
		p.Closed[i].Tag, p.Closed[i].Lane = i, 1
	}
	return p, nil
}
