package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// reqHeader carries the generator's request number to an in-process
// host, which files the spans it records under it (traced runs only).
const reqHeader = "X-Bench-Req"

// lane is one keep-alive connection. The generator never opens more
// than two, and never retries: a failed request is counted, not hidden.
type lane struct {
	c    *http.Client
	base string
}

func newLane(base string) *lane {
	tr := &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}
	return &lane{c: &http.Client{Transport: tr, Timeout: 60 * time.Second}, base: base}
}

func (l *lane) close() { l.c.Transport.(*http.Transport).CloseIdleConnections() }

// do sends one request and reads the whole reply. status is 0 on a
// transport error.
func (l *lane) do(method, path string, body []byte, reqID string) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, l.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if reqID != "" {
		req.Header.Set(reqHeader, reqID)
	}
	resp, err := l.c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, b, nil
}

// getJSON fetches path and decodes a 200 reply into v.
func (l *lane) getJSON(path string, v any) error {
	status, b, err := l.do(http.MethodGet, path, nil, "")
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("GET %s: %d %s", path, status, bytes.TrimSpace(b))
	}
	return json.Unmarshal(b, v)
}

// record is the outcome of one scheduled request. Offsets are from the
// start of the load; a closed-loop request's Due equals its Sent.
type record struct {
	Kind  kind
	Open  bool
	Tag   int
	Due   time.Duration
	Sent  time.Duration
	Done  time.Duration
	OK    bool
	Bytes int
	Items int // acked chip ops, or chips advanced by a tick
	Epoch uint64
	TickS float64 // engine last_tick_seconds after a tick
	ReqID string
}

func (r record) latency() time.Duration { return r.Done - r.Due }

// ack is what the generator saw acknowledged for one fleet chip.
type ack struct {
	StressSeconds float64
	HealSeconds   float64
}

// counter tallies attempted and failed requests over a whole run.
type counter struct{ attempted, failed atomic.Int64 }

func (c *counter) add(ok bool) {
	c.attempted.Add(1)
	if !ok {
		c.failed.Add(1)
	}
}

// opBody is the wire form of one fleet op (also a batch item).
type opBody struct {
	Op    string  `json:"op,omitempty"`
	ID    string  `json:"id,omitempty"`
	TempC float64 `json:"temp_c"`
	Vdd   float64 `json:"vdd"`
	Hours float64 `json:"hours"`
}

func phaseBody(k kind, id string, inBatch bool) opBody {
	b := opBody{TempC: writeTempC, Vdd: stressVdd, Hours: phaseHours}
	if k == kRejuv {
		b.Vdd = rejuvVdd
	}
	if inBatch {
		b.Op, b.ID = k.String(), id
		if k == kMeasure {
			b.TempC, b.Vdd, b.Hours = 0, 0, 0
		}
	}
	return b
}

type batchReply struct {
	Results []struct {
		Op    string `json:"op"`
		ID    string `json:"id"`
		Error string `json:"error"`
	} `json:"results"`
}

type engineStatus struct {
	Stats struct {
		Epoch           uint64  `json:"epoch"`
		Chips           int     `json:"chips"`
		LastTickSeconds float64 `json:"last_tick_seconds"`
	} `json:"stats"`
}

// gen drives one plan against a host.
type gen struct {
	p      *plan
	lanes  [2]*lane
	cnt    *counter
	traced bool

	mu   sync.Mutex
	recs []record
	acks map[string]*ack
}

func newGen(p *plan, base string, cnt *counter, traced bool) *gen {
	return &gen{
		p: p, lanes: [2]*lane{newLane(base), newLane(base)},
		cnt: cnt, traced: traced, acks: map[string]*ack{},
	}
}

func (g *gen) close() {
	for _, l := range g.lanes {
		l.close()
	}
}

// chipID names a request's chip in the plan's id space.
func (g *gen) chipID(i int) string {
	if g.p.Workload == "engine-epochs" {
		return engineID(i)
	}
	return fleetID(i)
}

func (g *gen) ackPhase(id string, k kind, hours float64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	a := g.acks[id]
	if a == nil {
		a = &ack{}
		g.acks[id] = a
	}
	switch k {
	case kStress:
		a.StressSeconds += hours * 3600
	case kRejuv:
		a.HealSeconds += hours * 3600
	}
}

// send executes one scheduled request on l and returns its record.
func (g *gen) send(l *lane, r request, t0 time.Time, reqID string) record {
	rec := record{Kind: r.Kind, Tag: r.Tag, Open: r.Lane == 0, ReqID: reqID}
	var (
		method = http.MethodPost
		path   string
		body   any
	)
	id := g.chipID(r.Chip)
	switch r.Kind {
	case kRead:
		method, path = http.MethodGet, "/v1/engine/chips/"+id
	case kStress, kRejuv:
		path, body = "/v1/chips/"+id+"/"+r.Kind.String(), phaseBody(r.Kind, id, false)
	case kMeasure:
		method, path = http.MethodGet, "/v1/chips/"+id+"/measure"
	case kBatch:
		ops := make([]opBody, len(r.Ops))
		for i, it := range r.Ops {
			ops[i] = phaseBody(it.Op, fleetID(it.Chip), true)
		}
		path, body = "/v1/ops:batch", map[string]any{"ops": ops}
	case kTick:
		path, body = "/v1/engine/tick", map[string]uint64{"epochs": 1}
	case kScrape:
		method, path = http.MethodGet, "/metrics?format=prometheus"
	case kCond:
		path = "/v1/engine/chips/" + id + "/condition"
		body = map[string]float64{"temp_c": 80, "vdd": 1.2, "duty": r.Duty}
	}
	var raw []byte
	if body != nil {
		raw, _ = json.Marshal(body)
	}
	rec.Sent = time.Since(t0)
	if r.Lane == 0 {
		rec.Due = r.Due
	} else {
		rec.Due = rec.Sent
	}
	status, reply, err := l.do(method, path, raw, reqID)
	rec.Done = time.Since(t0)
	rec.Bytes = len(reply)
	rec.OK = err == nil && status/100 == 2
	switch {
	case !rec.OK:
	case r.Kind == kStress || r.Kind == kRejuv:
		g.ackPhase(id, r.Kind, phaseHours)
		rec.Items = 1
	case r.Kind == kMeasure:
		rec.Items = 1
	case r.Kind == kBatch:
		var br batchReply
		if json.Unmarshal(reply, &br) != nil || len(br.Results) != len(r.Ops) {
			rec.OK = false
			break
		}
		for i, res := range br.Results {
			if res.Error != "" {
				rec.OK = false // a refused item fails the request
				continue
			}
			g.ackPhase(fleetID(r.Ops[i].Chip), r.Ops[i].Op, phaseHours)
			rec.Items++
		}
	case r.Kind == kTick:
		// The tick reply carries the epoch only; the tick's own cost
		// comes from the engine's stats, read right behind it.
		var es engineStatus
		err := l.getJSON("/v1/engine", &es)
		g.cnt.add(err == nil)
		if err == nil {
			rec.Epoch, rec.TickS, rec.Items = es.Stats.Epoch, es.Stats.LastTickSeconds, es.Stats.Chips
		}
	}
	g.cnt.add(rec.OK)
	return rec
}

// sleepUntil blocks until t with nanosleep(2). time.Sleep rides the
// runtime's poller, whose millisecond timeouts would make the
// generator up to 1 ms late — as long as a whole read takes.
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(d))
		syscall.Nanosleep(&ts, nil) // EINTR (runtime preemption): loop
	}
}

// run sends the plan's load: the open-loop requests at their due
// times over OpenLanes connections, and the closed-loop list back to
// back on the other connection until the window ends. onSlice(i) runs
// at the start of each slice of the measured window and once more at
// its end (i = 0 is the end of the warm-up).
func (g *gen) run(onSlice func(i int)) time.Time {
	p := g.p
	span := p.Warmup + p.Window
	t0 := time.Now()
	var wg sync.WaitGroup
	sliced := make(chan struct{})
	go func() {
		for i := 0; time.Duration(i)*sliceLen <= p.Window; i++ {
			sleepUntil(t0.Add(p.Warmup + time.Duration(i)*sliceLen))
			onSlice(i)
		}
		close(sliced)
	}()
	var next atomic.Int64
	var seq atomic.Int64
	reqID := func() string {
		if !g.traced {
			return ""
		}
		return strconv.FormatInt(seq.Add(1), 10)
	}
	collect := func(recs []record) {
		g.mu.Lock()
		g.recs = append(g.recs, recs...)
		g.mu.Unlock()
	}
	for li := 0; li < p.OpenLanes; li++ {
		wg.Add(1)
		go func(l *lane) {
			defer wg.Done()
			var recs []record
			for {
				i := int(next.Add(1)) - 1
				if i >= len(p.Open) {
					break
				}
				r := p.Open[i]
				sleepUntil(t0.Add(r.Due))
				recs = append(recs, g.send(l, r, t0, reqID()))
			}
			collect(recs)
		}(g.lanes[li])
	}
	if len(p.Closed) > 0 {
		wg.Add(1)
		go func(l *lane) {
			defer wg.Done()
			var recs []record
			for _, r := range p.Closed {
				if time.Since(t0) >= span {
					break
				}
				recs = append(recs, g.send(l, r, t0, reqID()))
			}
			collect(recs)
		}(g.lanes[1])
	}
	wg.Wait()
	<-sliced
	return t0
}
