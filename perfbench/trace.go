package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"selfheal"
	"selfheal/internal/engine"
	"selfheal/internal/fleet"
	"selfheal/internal/serve"
	"selfheal/internal/store"
	"selfheal/internal/td"
	"selfheal/internal/units"
)

// span is one timed call into a layer's public API, recorded by the
// traced host. Req ties it to the generator request (or direct-pass
// call) it ran under; spans are written out as JSON lines at the end.
type span struct {
	Name   string        `json:"name"`
	Parent string        `json:"parent,omitempty"` // the enclosing span's name
	Req    string        `json:"req,omitempty"`
	Start  time.Duration `json:"start"` // offset from the recorder's epoch
	End    time.Duration `json:"end"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// recorder keeps every span in memory.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) add(name string, c caller, start, end time.Time) {
	r.mu.Lock()
	r.spans = append(r.spans, span{Name: name, Parent: c.parent, Req: c.req, Start: start.Sub(r.t0), End: end.Sub(r.t0)})
	r.mu.Unlock()
}

// timed runs fn as a top-level span of request req; fn gets the
// context its child spans find their request and parent in.
func (r *recorder) timed(ctx context.Context, name, req string, fn func(context.Context)) time.Duration {
	t := time.Now()
	fn(context.WithValue(ctx, callerKey{}, caller{req: req, parent: name}))
	end := time.Now()
	r.add(name, caller{req: req}, t, end)
	return end.Sub(t)
}

// covered is how much of its time request req spent inside spans
// named name: the union of their intervals, so children running in
// parallel (a batch's items) are not counted twice.
func (r *recorder) covered(req, name string) time.Duration {
	var iv [][2]time.Duration
	r.mu.Lock()
	for _, s := range r.spans {
		if s.Req == req && s.Name == name {
			iv = append(iv, [2]time.Duration{s.Start, s.End})
		}
	}
	r.mu.Unlock()
	return unionLength(iv)
}

// unionLength is the total length covered by a set of intervals.
func unionLength(iv [][2]time.Duration) time.Duration {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, end time.Duration
	for i, v := range iv {
		switch {
		case i == 0 || v[0] > end:
			total += v[1] - v[0]
			end = v[1]
		case v[1] > end:
			total += v[1] - end
			end = v[1]
		}
	}
	return total
}

func (r *recorder) writeTo(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	for _, s := range r.spans {
		enc.Encode(s)
	}
	r.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// caller is what a child span learns from its context: the request
// it runs under and the enclosing span.
type caller struct{ req, parent string }

type callerKey struct{}

func callerOf(ctx context.Context) caller {
	c, _ := ctx.Value(callerKey{}).(caller)
	return c
}

// timedStore is a store.Store decorator timing every Commit, Lookup
// and Insert — the engine's commits included, since the engine
// journals through the same store.
type timedStore struct {
	fleet.Store
	rec *recorder
}

func (s *timedStore) Commit(ctx context.Context, r store.Record) error {
	t := time.Now()
	err := s.Store.Commit(ctx, r)
	s.rec.add("store.commit", callerOf(ctx), t, time.Now())
	return err
}

func (s *timedStore) Lookup(id string) (*fleet.ChipEntry, bool) {
	t := time.Now()
	e, ok := s.Store.Lookup(id)
	s.rec.add("store.lookup", caller{}, t, time.Now())
	return e, ok
}

func (s *timedStore) Insert(id string, e *fleet.ChipEntry) bool {
	t := time.Now()
	ok := s.Store.Insert(id, e)
	s.rec.add("store.insert", caller{}, t, time.Now())
	return ok
}

// serveConfig is the in-process twin of the exec'd server's flags.
func serveConfig(st fleet.Store, logger *slog.Logger) serve.Config {
	return serve.Config{
		Addr:          "127.0.0.1:0",
		Logger:        logger,
		Store:         st,
		EngineEnabled: true,
		EngineEpoch:   -time.Second,
		GuardEnabled:  true,
	}
}

// inProcHost hosts serve.New in this process behind a loopback
// listener, with ServeHTTP and the store timed.
type inProcHost struct {
	rec    *recorder
	logOut io.Writer
	st     fleet.Store
	srv    *serve.Server
	hs     *http.Server
	closed bool
}

func (h *inProcHost) start(dataDir string) (string, error) {
	st, _, err := store.Open[*fleet.ChipEntry](dataDir, store.JournalOptions{})
	if err != nil {
		return "", err
	}
	logger := slog.New(slog.NewTextHandler(h.logOut, nil))
	srv, err := serve.New(serveConfig(&timedStore{Store: st, rec: h.rec}, logger))
	if err != nil {
		st.Close()
		return "", err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		st.Close()
		return "", err
	}
	inner := srv.Handler()
	h.st, h.srv = st, srv
	h.hs = &http.Server{
		Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			h.rec.timed(r.Context(), "serve.http", r.Header.Get(reqHeader), func(ctx context.Context) {
				inner.ServeHTTP(w, r.WithContext(ctx))
			})
		}),
		ReadHeaderTimeout: 10 * time.Second,
	}
	go h.hs.Serve(ln)
	return "http://" + ln.Addr().String(), nil
}

func (h *inProcHost) ready(l *lane) error {
	status, _, err := l.do(http.MethodGet, "/readyz", nil, "")
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("in-process host not ready: %d", status)
	}
	return nil
}

func (h *inProcHost) pid() int { return os.Getpid() }

// crash closes the host without draining: the listener and its
// connections go first, then the engine and the journal.
func (h *inProcHost) crash() {
	if h.closed || h.hs == nil {
		return
	}
	h.closed = true
	h.hs.Close()
	h.srv.Close()
	h.st.Close()
}

// tracedOut is a traced run's contribution to the report.
type tracedOut struct {
	res   *runResult
	layer map[string]float64
	self  []selfRow
}

// passStats are the direct-call timings of the second and third
// passes, keyed by request kind.
type passStats struct {
	direct   map[kind][]float64 // ms per call straight into fleet/engine
	store    map[kind][]float64 // ms of store spans inside each direct call
	chip     map[kind][]float64 // ms per op straight into selfheal.Chip
	hooks    []float64          // ms: Engine.Tick − Stats().LastTickSeconds
	batchPer float64            // ms per item through Service.ApplyBatch
	tdPerMS  float64            // ms of td.AdvanceBatch per tick (wall, over the tick workers)
}

// tracedRun repeats the plan against the in-process host, then makes
// the direct passes and replays, and returns the per-layer metrics and
// the self-time table.
func tracedRun(p *plan, workDir string) (*tracedOut, error) {
	rec := newRecorder()
	logf, err := os.Create(filepath.Join(workDir, "traced.log"))
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	out := &tracedOut{layer: map[string]float64{}}
	ps := &passStats{direct: map[kind][]float64{}, store: map[kind][]float64{}, chip: map[kind][]float64{}}
	newHost := func() host { return &inProcHost{rec: rec, logOut: logf} }
	// One setup, and no restart of its own: the replays in the direct
	// passes time the journal, and the untraced run checks durability.
	var replayS float64
	after := func(g *gen, h host, dataDir string) (uint64, error) {
		epoch, secs, err := directPasses(p, g, h.(*inProcHost), rec, ps, out.layer, dataDir)
		replayS = secs
		return epoch, err
	}
	res, err := runWorkload(p, newHost, workDir, runOpts{setups: 1, traced: true, afterWindow: after})
	if err != nil {
		return nil, err
	}
	res.e2e["restart_s"] = replayS
	out.res = res
	// The spans outlive the run's scratch directory.
	spansDir := filepath.Join(filepath.Dir(workDir), "spans")
	if err := os.MkdirAll(spansDir, 0o755); err != nil {
		return nil, err
	}
	if err := rec.writeTo(filepath.Join(spansDir, fmt.Sprintf("%s-seed%d.jsonl", p.Workload, p.Seed))); err != nil {
		return nil, err
	}
	out.self = selfTimes(p, res, rec, ps, out.layer)
	return out, nil
}

func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// probeOps is the fleet op sequence the direct passes replay: the
// window's own single ops (fleet-rw), the items of its first batches
// (fleet-batch), or — engine-epochs has no fleet traffic — the same
// op mix over 16 probe chips, as a control.
func probeOps(p *plan) (ops []item, seeds map[int]uint64) {
	const n = 3 * batchSize
	seeds = map[int]uint64{}
	switch p.Workload {
	case "fleet-rw":
		for _, r := range p.Open {
			if r.Kind.isChipOp() && r.Due >= p.Warmup && len(ops) < n {
				ops = append(ops, item{Op: r.Kind, Chip: r.Chip})
			}
		}
	case "fleet-batch":
		for _, b := range p.Closed[:3] {
			ops = append(ops, b.Ops...)
		}
	default:
		r := newRand(p.Seed, 3)
		for len(ops) < n {
			ops = append(ops, fleetWrite(r, 16))
		}
		for i := 0; i < 16; i++ {
			seeds[i] = r.Uint64() >> 1
		}
		return ops, seeds
	}
	for _, it := range ops {
		seeds[it.Chip] = p.FleetSeeds[it.Chip]
	}
	return ops, seeds
}

// probeID names probe chips apart from the workload's own.
func probeID(p *plan, i int) string {
	if p.Workload == "engine-epochs" {
		return fmt.Sprintf("probe%02d", i)
	}
	return fleetID(i)
}

func phaseReq(k kind) fleet.PhaseRequest {
	pr := fleet.PhaseRequest{TempC: writeTempC, Vdd: stressVdd, Hours: phaseHours}
	if k == kRejuv {
		pr.Vdd = rejuvVdd
	}
	return pr
}

// directPasses runs on the live in-process host after the window: the
// same kinds of calls straight into Server.Fleet() and the aging
// engine (pass two), the fleet ops straight into selfheal.Chip (pass
// three), the td kernel at the workload's size and mix, registration
// on a fresh engine, and finally the replays over the run's journal in
// dataDir — their total (open, fleet, engine) is the traced run's
// restart_s.
func directPasses(p *plan, g *gen, h *inProcHost, rec *recorder, ps *passStats, L map[string]float64, dataDir string) (epoch uint64, replayS float64, err error) {
	ctx := context.Background()
	fl, eng := h.srv.Fleet(), h.srv.AgingEngine()
	ops, seeds := probeOps(p)

	if p.Workload == "engine-epochs" {
		for i := 0; i < 16; i++ {
			id := probeID(p, i)
			if _, err := fl.Create(ctx, fleet.CreateSpec{ID: id, Seed: seeds[i]}); err != nil {
				return 0, 0, err
			}
			if _, err := fl.Stress(ctx, id, phaseReq(kStress)); err != nil {
				return 0, 0, err
			}
			g.ackPhase(id, kStress, phaseHours)
		}
	}

	// Pass two, fleet: single ops, then the same ops as batches.
	storeIn := func(req string) float64 { return msOf(rec.covered(req, "store.commit")) }
	for i, it := range ops {
		id, req := probeID(p, it.Chip), fmt.Sprintf("p2-%d", i)
		var err error
		d := rec.timed(ctx, "fleet.op", req, func(c context.Context) {
			switch it.Op {
			case kStress:
				_, err = fl.Stress(c, id, phaseReq(kStress))
			case kRejuv:
				_, err = fl.Rejuvenate(c, id, phaseReq(kRejuv))
			default:
				_, err = fl.Measure(c, id)
			}
		})
		if err != nil {
			return 0, 0, fmt.Errorf("direct %s on %s: %w", it.Op, id, err)
		}
		g.ackPhase(id, it.Op, phaseHours)
		ps.direct[it.Op] = append(ps.direct[it.Op], msOf(d))
		ps.store[it.Op] = append(ps.store[it.Op], storeIn(req))
	}
	var batchMS, batchItems float64
	for bi, b := range packBatches(ops) {
		specs := make([]fleet.OpSpec, len(b))
		for j, it := range b {
			specs[j] = fleet.OpSpec{Op: it.Op.String(), ID: probeID(p, it.Chip)}
			if it.Op != kMeasure {
				specs[j].PhaseRequest = phaseReq(it.Op)
			}
		}
		req := fmt.Sprintf("p2b-%d", bi)
		var results []fleet.OpResult
		d := rec.timed(ctx, "fleet.batch", req, func(c context.Context) { results = fl.ApplyBatch(c, specs) })
		for j, r := range results {
			if r.Err != nil {
				return 0, 0, fmt.Errorf("direct batch item %s: %w", r.ID, r.Err)
			}
			g.ackPhase(specs[j].ID, b[j].Op, phaseHours)
		}
		batchMS += msOf(d)
		batchItems += float64(len(b))
		if len(b) == batchSize {
			ps.direct[kBatch] = append(ps.direct[kBatch], msOf(d))
			ps.store[kBatch] = append(ps.store[kBatch], storeIn(req))
		}
	}
	ps.batchPer = batchMS / batchItems

	// Pass two, engine: snapshot reads, ticks, condition changes.
	var readIDs []string
	var conds []request
	for _, r := range p.Open {
		switch {
		case r.Kind == kRead && len(readIDs) < 300:
			readIDs = append(readIDs, g.chipID(r.Chip))
		case r.Kind == kCond && len(conds) < 100:
			conds = append(conds, r)
		}
	}
	for _, id := range readIDs {
		var ok bool
		d := rec.timed(ctx, "engine.read", "", func(context.Context) { _, ok = eng.Snapshot().Chip(id) })
		if !ok {
			return 0, 0, fmt.Errorf("direct read: chip %s missing", id)
		}
		ps.direct[kRead] = append(ps.direct[kRead], msOf(d))
	}
	for i := 0; i < 20; i++ {
		req := fmt.Sprintf("p2t-%d", i)
		d := rec.timed(ctx, "engine.tick", req, eng.Tick)
		last := eng.Stats().LastTickSeconds * 1000
		ps.direct[kTick] = append(ps.direct[kTick], msOf(d))
		ps.store[kTick] = append(ps.store[kTick], storeIn(req))
		ps.hooks = append(ps.hooks, msOf(d)-last)
	}
	if len(conds) == 0 {
		// The fleet workloads send no condition changes; toggle the
		// engine twins of the first fleet chips as a control.
		for i := 0; i < 100 && i < len(p.FleetSeeds); i++ {
			conds = append(conds, request{Kind: kCond, Chip: i, Duty: 0.5})
		}
	}
	for i, r := range conds {
		req := fmt.Sprintf("p2c-%d", i)
		duty := r.Prev // undo the window's change
		if p.Workload != "engine-epochs" {
			duty = r.Duty
		}
		var err error
		d := rec.timed(ctx, "engine.condition", req, func(c context.Context) {
			err = eng.SetCondition(c, g.chipID(r.Chip), engine.Cond{TempC: 80, Vdd: 1.2, Duty: duty})
		})
		if err != nil {
			return 0, 0, fmt.Errorf("direct condition: %w", err)
		}
		ps.direct[kCond] = append(ps.direct[kCond], msOf(d))
		ps.store[kCond] = append(ps.store[kCond], storeIn(req))
	}

	// Pass three: the same fleet ops straight into selfheal.Chip, on
	// chips fabricated fresh from the same seeds and given setup's
	// 110 °C phase.
	chips := map[int]*selfheal.Chip{}
	var fab []float64
	for _, it := range ops {
		if chips[it.Chip] != nil {
			continue
		}
		var c *selfheal.Chip
		var err error
		d := rec.timed(ctx, "chip.fabricate", "", func(context.Context) { c, err = selfheal.NewChip(probeID(p, it.Chip), seeds[it.Chip]) })
		if err != nil {
			return 0, 0, err
		}
		fab = append(fab, msOf(d))
		if _, err := c.Stress(selfheal.StressCondition{TempC: writeTempC, Vdd: stressVdd}, phaseHours, 0); err != nil {
			return 0, 0, err
		}
		chips[it.Chip] = c
	}
	for _, it := range ops {
		c := chips[it.Chip]
		var err error
		d := rec.timed(ctx, "chip."+it.Op.String(), "", func(context.Context) {
			switch it.Op {
			case kStress:
				_, err = c.Stress(selfheal.StressCondition{TempC: writeTempC, Vdd: stressVdd}, phaseHours, 0)
			case kRejuv:
				_, err = c.Rejuvenate(selfheal.SleepCondition{TempC: writeTempC, Vdd: rejuvVdd}, phaseHours, 0)
			default:
				_, err = c.Measure()
			}
		})
		if err != nil {
			return 0, 0, err
		}
		ps.chip[it.Op] = append(ps.chip[it.Op], msOf(d))
	}

	// td and registration at the workload's size and mix.
	specs := engineSpecs(p)
	tdNS, err := tdKernel(specs)
	if err != nil {
		return 0, 0, err
	}
	regUS, err := registerCost(specs)
	if err != nil {
		return 0, 0, err
	}

	epoch = eng.Stats().Epoch

	// Replays over the run's journal: close the host (the restart
	// that follows reopens it) and rebuild the fleet and the engine.
	h.crash()
	opened := time.Now()
	st, _, err := store.Open[*fleet.ChipEntry](dataDir, store.JournalOptions{})
	if err != nil {
		return 0, 0, err
	}
	t := time.Now()
	if _, err := fleet.NewService(st); err != nil {
		st.Close()
		return 0, 0, err
	}
	fleetReplay := time.Since(t).Seconds()
	t = time.Now()
	re, err := engine.New(st, engine.Config{EpochHours: epochHours})
	if err != nil {
		st.Close()
		return 0, 0, err
	}
	engineReplay := time.Since(t).Seconds()
	replayS = time.Since(opened).Seconds()
	re.Close()
	st.Close()

	var phase []float64
	phase = append(phase, ps.chip[kStress]...)
	phase = append(phase, ps.chip[kRejuv]...)
	var single []float64
	for _, k := range []kind{kStress, kRejuv, kMeasure} {
		single = append(single, ps.direct[k]...)
	}
	workers := float64(runtime.GOMAXPROCS(0))
	ps.tdPerMS = tdNS * float64(len(specs)) / 1e6 / workers
	L["fleet.op_ms"] = percentile(single, 50)
	L["fleet.batch_ms_per_item"] = ps.batchPer
	L["fleet.replay_s"] = fleetReplay
	L["chip.fabricate_ms"] = percentile(fab, 50)
	L["chip.phase_ms"] = percentile(phase, 50)
	L["chip.measure_ms"] = percentile(ps.chip[kMeasure], 50)
	L["engine.hooks_ms"] = percentile(ps.hooks, 50)
	L["engine.event_ms"] = percentile(ps.direct[kCond], 50)
	L["engine.register_us_per_chip"] = regUS
	L["engine.replay_s"] = engineReplay
	L["td.ns_per_chip"] = tdNS
	return epoch, replayS, nil
}

// packBatches groups ops into batches of up to 64 with no chip twice.
func packBatches(ops []item) [][]item {
	var out [][]item
	var cur []item
	seen := map[int]bool{}
	for _, it := range ops {
		if len(cur) == batchSize || seen[it.Chip] {
			out = append(out, cur)
			cur, seen = nil, map[int]bool{}
		}
		cur = append(cur, it)
		seen[it.Chip] = true
	}
	if len(cur) > 0 {
		out = append(out, cur)
	}
	return out
}

// engineSpecs are the engine registrations a workload's fleet amounts
// to: its engine-native chips, or one fleet twin per fleet chip.
func engineSpecs(p *plan) []engine.Spec {
	if len(p.Engine) > 0 {
		specs := make([]engine.Spec, len(p.Engine))
		for i, c := range p.Engine {
			specs[i] = engine.Spec{ID: c.ID, Phase: c.Phase, TempC: c.TempC, Vdd: c.Vdd, Duty: c.Duty}
			if c.Schedule {
				specs[i].Schedule = &engine.Schedule{StressEpochs: 16, SleepEpochs: 8, SleepTempC: 40, SleepVdd: -0.3}
			}
		}
		return specs
	}
	specs := make([]engine.Spec, len(p.FleetSeeds)+1)
	for i := range specs {
		specs[i] = engine.Spec{ID: fleetID(i), Kind: engine.KindFleet, TempC: 80, Vdd: 1.2, Duty: 1}
	}
	return specs
}

// tdKernel times td.AdvanceBatch over a batch of the workload's size,
// grouped into condition classes the way the engine groups them, and
// returns ns per chip per advance.
func tdKernel(specs []engine.Spec) (float64, error) {
	prm := td.DefaultParams()
	b := td.NewBatch(len(specs))
	type key struct {
		sleep    bool
		temp, vd float64
	}
	idx := map[key][]int{}
	var order []key
	for _, s := range specs {
		i, err := b.Append(prm, s.Duty)
		if err != nil {
			return 0, err
		}
		k := key{s.Phase == engine.PhaseSleepName, s.TempC, s.Vdd}
		if _, ok := idx[k]; !ok {
			order = append(order, k)
		}
		idx[k] = append(idx[k], i)
	}
	var classes []td.Class
	for _, k := range order {
		c := td.Class{Idx: idx[k]}
		if k.sleep {
			c.RCond = td.RecoveryCond{VRev: units.Volt(-k.vd), T: units.Celsius(k.temp).Kelvin()}
		} else {
			c.Stress = true
			c.SCond = td.StressCond{V: units.Volt(k.vd), T: units.Celsius(k.temp).Kelvin()}
		}
		classes = append(classes, c)
	}
	dt := units.HoursToSeconds(epochHours)
	const rounds = 20
	t := time.Now()
	for i := 0; i < rounds; i++ {
		if err := td.AdvanceBatch(prm, b, dt, classes); err != nil {
			return 0, err
		}
	}
	return float64(time.Since(t).Nanoseconds()) / rounds / float64(len(specs)), nil
}

// registerCost times RegisterBatch of the workload's chips on a fresh
// in-memory engine, in µs per chip.
func registerCost(specs []engine.Spec) (float64, error) {
	e, err := engine.New(store.NewMem[any](), engine.Config{EpochHours: epochHours})
	if err != nil {
		return 0, err
	}
	defer e.Close()
	ctx := context.Background()
	t := time.Now()
	for lo := 0; lo < len(specs); lo += 1024 {
		res, err := e.RegisterBatch(ctx, specs[lo:min(lo+1024, len(specs))])
		if err != nil {
			return 0, err
		}
		for _, r := range res {
			if r.Err != nil {
				return 0, r.Err
			}
		}
	}
	return float64(time.Since(t).Nanoseconds()) / 1e3 / float64(len(specs)), nil
}
