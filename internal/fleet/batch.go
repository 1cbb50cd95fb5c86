package fleet

import (
	"context"
	"sync"

	"selfheal/internal/obs"
)

// Op names accepted by OpSpec.Op.
const (
	BatchOpStress     = "stress"
	BatchOpRejuvenate = "rejuvenate"
	BatchOpMeasure    = "measure"
	BatchOpOdometer   = "odometer"
)

// OpSpec is one chip operation — a Service.Apply call or an item of a
// mixed-operation batch: an op name, the target chip, and (for the
// phase ops) the embedded phase parameters.
type OpSpec struct {
	Op string `json:"op"`
	ID string `json:"id"`
	PhaseRequest
}

// CreateResult reports one item of a bulk create. Exactly one of Chip
// and Error is set; Err carries the typed error for in-process callers
// (the transport layer uses it to spot durability failures). Code,
// when present, is a machine-readable classification of the failure —
// currently only CodeCanceled, marking an item that was never run and
// is safe to retry.
type CreateResult struct {
	ID    string        `json:"id"`
	Chip  *ChipResponse `json:"chip,omitempty"`
	Error string        `json:"error,omitempty"`
	Code  string        `json:"code,omitempty"`
	Err   error         `json:"-"`
}

// OpResult reports one chip operation (see OpSpec). On success the
// field matching the op is set (Phase for stress/rejuvenate, Reading
// for measure, Odometer for odometer); on failure Error carries the
// message and Err the typed error.
type OpResult struct {
	Op       string            `json:"op"`
	ID       string            `json:"id"`
	Phase    *PhaseResponse    `json:"phase,omitempty"`
	Reading  *ReadingResponse  `json:"reading,omitempty"`
	Odometer *OdometerResponse `json:"odometer,omitempty"`
	Error    string            `json:"error,omitempty"`
	Code     string            `json:"code,omitempty"`
	Err      error             `json:"-"`
}

// CreateBatch fabricates many chips concurrently on the bounded worker
// pool, each id's items in input order, so of two creates of one id the
// first wins. Items fail independently: results[i] corresponds to
// specs[i], and a failed item never blocks the rest. On a durable fleet
// the concurrent commits share group-committed fsyncs in the store's
// log. A cancelled ctx stops starting new items; already-running items
// finish and unstarted ones report the context error.
func (s *Service) CreateBatch(ctx context.Context, specs []CreateSpec) []CreateResult {
	bctx, batch := obs.StartSpan(ctx, "fleet.batch",
		obs.String("kind", "create"), obs.Int("items", len(specs)))
	defer batch.End()
	results := make([]CreateResult, len(specs))
	s.runBatch(bctx, batch, len(specs), func(i int) string { return specs[i].ID }, func(ictx context.Context, i int) {
		res := CreateResult{ID: specs[i].ID}
		chip, err := s.Create(ictx, specs[i])
		if err != nil {
			res.Err = err
			res.Error = err.Error()
		} else {
			res.Chip = &chip
		}
		results[i] = res
	}, func(i int, err error) {
		cerr := CanceledError{Err: err}
		results[i] = CreateResult{ID: specs[i].ID, Err: cerr, Error: cerr.Error(), Code: CodeCanceled}
	})
	return results
}

// ApplyBatch runs a mixed stress/rejuvenate/measure/odometer batch
// concurrently on the bounded worker pool. Items targeting different
// chips proceed in parallel; items targeting the same chip run on one
// worker in input order, so a measure after a stress reads the
// stressed die. Partial-failure and cancellation semantics match
// CreateBatch.
func (s *Service) ApplyBatch(ctx context.Context, specs []OpSpec) []OpResult {
	bctx, batch := obs.StartSpan(ctx, "fleet.batch",
		obs.String("kind", "ops"), obs.Int("items", len(specs)))
	defer batch.End()
	results := make([]OpResult, len(specs))
	s.runBatch(bctx, batch, len(specs), func(i int) string { return specs[i].ID }, func(ictx context.Context, i int) {
		results[i] = s.Apply(ictx, specs[i])
	}, func(i int, err error) {
		cerr := CanceledError{Err: err}
		results[i] = OpResult{Op: specs[i].Op, ID: specs[i].ID, Err: cerr, Error: cerr.Error(), Code: CodeCanceled}
	})
	return results
}

// runBatch fans n items out over the worker pool, all of one chip's
// items (id(i) names item i's chip) to one worker, in input order.
// run(ictx, i) executes item i under a batch.item span (carried by
// ictx, so the item's chip-lock/store/journal spans nest beneath it,
// labeled with the worker that ran it — the pool's scheduling made
// visible); skip(i, err) records an item that never started because ctx
// was cancelled first. Every index gets exactly one of the two calls.
func (s *Service) runBatch(ctx context.Context, batch *obs.Span, n int, id func(i int) string, run func(ictx context.Context, i int), skip func(i int, err error)) {
	// heads holds each chip's first item, and next[i] the chip's item
	// after i (-1: none).
	var heads []int
	next := make([]int, n)
	last := make(map[string]int, n)
	for i := 0; i < n; i++ {
		next[i] = -1
		if p, ok := last[id(i)]; ok {
			next[p] = i
		} else {
			heads = append(heads, i)
		}
		last[id(i)] = i
	}
	workers := min(s.workers, len(heads))
	if workers < 1 {
		return
	}
	batch.Annotate(obs.Int("workers", workers))
	chips := make(chan int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for h := range chips {
				for i := h; i >= 0; i = next[i] {
					if err := ctx.Err(); err != nil {
						skip(i, err)
						continue
					}
					ictx, isp := obs.StartSpan(ctx, "batch.item",
						obs.Int("index", i), obs.Int("worker", w))
					run(ictx, i)
					isp.End()
				}
			}
		}(w)
	}
feed:
	for k, h := range heads {
		select {
		case chips <- h:
		case <-ctx.Done():
			for _, h := range heads[k:] {
				for i := h; i >= 0; i = next[i] {
					skip(i, ctx.Err())
				}
			}
			break feed
		}
	}
	close(chips)
	wg.Wait()
}
