package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"sync"

	"selfheal"
	"selfheal/internal/lru"
)

// Predictor evaluates the stateless prediction endpoints. Every
// simulation behind it is deterministic given its parameters, so
// results are memoized in a bounded LRU cache; concurrent identical
// requests are additionally collapsed into a single computation
// (singleflight) so a thundering herd costs one simulation.
type Predictor struct {
	cache *lru.Cache[string, any]

	mu       sync.Mutex
	inflight map[string]*call
}

type call struct {
	done chan struct{}
	val  any
	err  error
}

// NewPredictor returns a predictor whose memo cache holds cacheSize
// results.
func NewPredictor(cacheSize int) (*Predictor, error) {
	cache, err := lru.New[string, any](cacheSize)
	if err != nil {
		return nil, err
	}
	return &Predictor{cache: cache, inflight: make(map[string]*call)}, nil
}

// CacheStats reports cumulative cache hits/misses and residency.
func (p *Predictor) CacheStats() (hits, misses uint64, entries, capacity int) {
	hits, misses = p.cache.Stats()
	return hits, misses, p.cache.Len(), p.cache.Capacity()
}

// memoize returns the cached value for key, or computes it once —
// concurrent callers with the same key wait for the leader instead of
// recomputing. Errors are never cached. The boolean reports whether
// the value came from the cache.
func (p *Predictor) memoize(ctx context.Context, key string, compute func() (any, error)) (any, bool, error) {
	if v, ok := p.cache.Get(key); ok {
		return v, true, nil
	}
	p.mu.Lock()
	if c, ok := p.inflight[key]; ok {
		p.mu.Unlock()
		select {
		case <-c.done:
			return c.val, false, c.err
		case <-ctx.Done():
			return nil, false, ctx.Err()
		}
	}
	c := &call{done: make(chan struct{})}
	p.inflight[key] = c
	p.mu.Unlock()

	c.val, c.err = compute()
	if c.err == nil {
		p.cache.Add(key, c.val)
	}
	p.mu.Lock()
	delete(p.inflight, key)
	p.mu.Unlock()
	close(c.done)
	return c.val, false, c.err
}

// cacheKey builds a canonical key from the endpoint name and the
// normalized request (struct field order makes the JSON deterministic).
func cacheKey(endpoint string, req any) string {
	b, err := json.Marshal(req)
	if err != nil {
		// Requests are plain structs of numbers and strings; Marshal
		// only fails on non-finite floats, which validation rejected.
		panic(fmt.Sprintf("serve: unmarshalable cache key: %v", err))
	}
	return endpoint + "|" + string(b)
}

func finite(name string, v float64) error {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return fmt.Errorf("serve: %s must be finite, got %v", name, v)
	}
	return nil
}

func validateShift(req ShiftRequest) error {
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"temp_c", req.TempC}, {"vdd", req.Vdd}, {"duty", req.Duty},
		{"stress_hours", req.StressHours}, {"sleep_temp_c", req.SleepTempC},
		{"sleep_vdd", req.SleepVdd}, {"sleep_hours", req.SleepHours},
	} {
		if err := finite(f.name, f.v); err != nil {
			return err
		}
	}
	switch {
	case req.Vdd <= 0:
		return fmt.Errorf("serve: vdd must be positive for stress, got %v", req.Vdd)
	case req.Duty < 0 || req.Duty > 1:
		return fmt.Errorf("serve: duty must be in [0,1], got %v", req.Duty)
	case req.StressHours <= 0:
		return fmt.Errorf("serve: stress_hours must be positive, got %v", req.StressHours)
	case req.SleepHours < 0:
		return fmt.Errorf("serve: sleep_hours must be ≥ 0, got %v", req.SleepHours)
	case req.SleepHours > 0 && req.SleepVdd > 0:
		return fmt.Errorf("serve: sleep_vdd must be ≤ 0, got %v", req.SleepVdd)
	}
	return nil
}

// Shift evaluates the closed-form TD model for one stress (and
// optionally one recovery) interval.
func (p *Predictor) Shift(ctx context.Context, req ShiftRequest) (ShiftResponse, error) {
	if err := validateShift(req); err != nil {
		return ShiftResponse{}, err
	}
	v, cached, err := p.memoize(ctx, cacheKey("shift", req), func() (any, error) {
		resp := ShiftResponse{
			ShiftV: selfheal.StressShiftV(
				selfheal.StressCondition{TempC: req.TempC, Vdd: req.Vdd},
				req.Duty, req.StressHours),
		}
		if req.SleepHours > 0 {
			rf := selfheal.RecoveredFraction(
				selfheal.SleepCondition{TempC: req.SleepTempC, Vdd: req.SleepVdd},
				req.StressHours, req.SleepHours)
			resp.RecoveredFraction = &rf
		}
		return resp, nil
	})
	if err != nil {
		return ShiftResponse{}, err
	}
	resp := v.(ShiftResponse)
	resp.Cached = cached
	return resp, nil
}

func buildPolicy(i int, spec PolicySpec) (selfheal.Policy, error) {
	cond := selfheal.SleepCondition{TempC: spec.SleepTempC, Vdd: spec.SleepVdd}
	switch spec.Kind {
	case "none", "no-recovery":
		return selfheal.NoRecoveryPolicy(), nil
	case "proactive":
		return selfheal.ProactivePolicy(spec.Alpha, spec.SleepHours, cond), nil
	case "reactive":
		return selfheal.ReactivePolicy(spec.TriggerPct, spec.RelaxPct, cond), nil
	default:
		return selfheal.Policy{}, fmt.Errorf(
			"serve: policy %d: unknown kind %q (want none, proactive or reactive)", i, spec.Kind)
	}
}

// Schedules compares rejuvenation policies over a horizon. The cache
// key excludes IncludeTrace: cached outcomes retain their traces and
// the response is trimmed per request.
func (p *Predictor) Schedules(ctx context.Context, req SchedulesRequest) (SchedulesResponse, error) {
	if err := finite("horizon_days", req.HorizonDays); err != nil {
		return SchedulesResponse{}, err
	}
	if len(req.Policies) == 0 {
		return SchedulesResponse{}, fmt.Errorf("serve: at least one policy is required")
	}
	policies := make([]selfheal.Policy, len(req.Policies))
	for i, spec := range req.Policies {
		pol, err := buildPolicy(i, spec)
		if err != nil {
			return SchedulesResponse{}, err
		}
		policies[i] = pol
	}
	keyReq := req
	keyReq.IncludeTrace = false
	v, cached, err := p.memoize(ctx, cacheKey("schedules", keyReq), func() (any, error) {
		return selfheal.CompareSchedules(req.Seed, req.HorizonDays, policies...)
	})
	if err != nil {
		return SchedulesResponse{}, err
	}
	return SchedulesResponse{
		Outcomes: NewScheduleOutcomeBodies(v.([]selfheal.ScheduleOutcome), req.IncludeTrace),
		Cached:   cached,
	}, nil
}

// Multicore runs the Section 6.2 exploration. The context propagates
// into the slot loop, so a cancelled request (or a shutting-down
// server) aborts the run instead of simulating to the horizon.
func (p *Predictor) Multicore(ctx context.Context, req MulticoreRequest) (MulticoreResponse, error) {
	if err := finite("days", req.Days); err != nil {
		return MulticoreResponse{}, err
	}
	v, cached, err := p.memoize(ctx, cacheKey("multicore", req), func() (any, error) {
		return selfheal.RunMulticoreContext(ctx, selfheal.MulticoreScheduler(req.Scheduler), req.Demand, req.Days)
	})
	if err != nil {
		return MulticoreResponse{}, err
	}
	resp := NewMulticoreResponse(v.(selfheal.MulticoreOutcome))
	resp.Cached = cached
	return resp, nil
}
