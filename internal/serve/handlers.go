package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"selfheal/internal/engine"
	"selfheal/internal/faults"
	"selfheal/internal/fleet"
	"selfheal/internal/store"
)

// decodeJSON strictly decodes a request body: unknown fields and
// trailing garbage are errors, so client typos surface as 400s instead
// of silently-defaulted parameters.
func decodeJSON(r *http.Request, v any) error {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("serve: bad request body: %w", err)
	}
	if dec.More() {
		return errors.New("serve: bad request body: trailing data after JSON value")
	}
	return nil
}

// writeJSON writes a response body with the shared encoder. The body
// is encoded into a buffer *before* the status line is committed, so
// an encoding failure becomes a clean 500 instead of a 200 with a
// truncated body.
func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	var buf bytes.Buffer
	if err := WriteJSON(&buf, v); err != nil {
		s.log.Error("encode response", "err", err)
		buf.Reset()
		status = http.StatusInternalServerError
		// ErrorResponse is two plain strings; encoding it cannot fail.
		WriteJSON(&buf, ErrorResponse{Error: "serve: response encoding failed"})
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	w.Write(buf.Bytes())
}

// writeError is the one classifier from an error to a status code:
// missing chips are 404, duplicate ids and kind mismatches 409, an
// oversized body 413, a cancelled or timed-out request or a closed
// engine 503, injected faults 500, everything else a validation 400. A
// store commit failure — a notDurableError, however the fleet or the
// engine wrapped it — is the storage wearing out, not a bug: it
// answers 503 with the `degraded` code and a Retry-After (the store
// seam has already tripped the gate). The response carries the request
// ID so failures are correlatable in the logs.
func (s *Server) writeError(w http.ResponseWriter, r *http.Request, err error) {
	status := http.StatusBadRequest
	code := ""
	var dup fleet.DuplicateError
	var missing fleet.NotFoundError
	var engDup engine.DuplicateError
	var engMissing engine.NotFoundError
	var notDurable notDurableError
	var quarantined fleet.QuarantinedError
	var tooBig *http.MaxBytesError
	switch {
	case errors.As(err, &missing), errors.As(err, &engMissing):
		status = http.StatusNotFound
	case errors.As(err, &dup), errors.As(err, &engDup), errors.Is(err, fleet.ErrKindMismatch):
		status = http.StatusConflict
	case errors.As(err, &tooBig):
		status = http.StatusRequestEntityTooLarge
	case errors.As(err, &quarantined):
		// The chip is healing under guard quarantine. Unlike a
		// durability failure this is per-chip, not service-wide, so the
		// write gate is left alone: other chips keep taking writes.
		status = http.StatusServiceUnavailable
		code = CodeQuarantined
		w.Header().Set("Retry-After", s.retryAfterSecs())
	case errors.As(err, &notDurable):
		// Checked before ErrInjected: an injected *journal* fault is
		// still a real durability failure.
		status = http.StatusServiceUnavailable
		code = CodeDegraded
		w.Header().Set("Retry-After", s.retryAfterSecs())
	case errors.Is(err, faults.ErrInjected):
		status = http.StatusInternalServerError
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded),
		errors.Is(err, engine.ErrClosed):
		status = http.StatusServiceUnavailable
	}
	s.writeJSON(w, status, ErrorResponse{
		Error:     err.Error(),
		Code:      code,
		RequestID: RequestIDFrom(r.Context()),
	})
}

// retryIfDegraded hints a Retry-After on a batch response when the
// gate is degraded after the batch ran: some item's commit failed, and
// its per-item result says which.
func (s *Server) retryIfDegraded(w http.ResponseWriter) {
	if degraded, _ := s.gate.status(); degraded {
		w.Header().Set("Retry-After", s.retryAfterSecs())
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	s.writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleReadyz reports write-readiness. Liveness stays on /healthz —
// a degraded fleet is alive (reads work, recovery is in progress), it
// is just not ready to take writes, which is exactly the distinction a
// load balancer needs.
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	if degraded, reason := s.gate.status(); degraded {
		w.Header().Set("Retry-After", s.retryAfterSecs())
		s.writeJSON(w, http.StatusServiceUnavailable, ReadyResponse{
			Status: "degraded", WriteReady: false, Reason: reason,
		})
		return
	}
	s.writeJSON(w, http.StatusOK, ReadyResponse{Status: "ok", WriteReady: true})
}

func (s *Server) handleCreateChip(w http.ResponseWriter, r *http.Request) {
	var req CreateChipRequest
	if err := decodeJSON(r, &req); err != nil {
		s.writeError(w, r, err)
		return
	}
	// The create path carries its chip id in the body, so ownership is
	// enforced here instead of in withOwnership.
	if s.checkOwnedCreate(w, r, req.ID) {
		return
	}
	resp, err := s.fleet.Create(r.Context(), req)
	if err != nil {
		if store.InLog(err) {
			s.engineObserveCreates(r, req.ID)
		}
		s.writeError(w, r, err)
		return
	}
	s.engineObserveCreates(r, resp.ID)
	s.writeJSON(w, http.StatusCreated, resp)
}

func (s *Server) handleListChips(w http.ResponseWriter, _ *http.Request) {
	s.writeJSON(w, http.StatusOK, ChipListResponse{Chips: s.fleet.List()})
}

func (s *Server) handleDeleteChip(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	existed, err := s.fleet.Delete(r.Context(), id)
	if err != nil {
		if store.InLog(err) {
			s.engineObserveDelete(r, id)
		}
		s.writeError(w, r, err)
		return
	}
	if !existed {
		s.writeError(w, r, fleet.NotFoundError{ID: id})
		return
	}
	s.engineObserveDelete(r, id)
	s.writeJSON(w, http.StatusOK, DeleteChipResponse{ID: id, Deleted: true})
}

// handleChipOp serves the four single-chip routes — stress and
// rejuvenate (with a PhaseRequest body), measure and odometer — through
// the fleet's one op dispatch, answering with the op's own result.
func (s *Server) handleChipOp(op string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		spec := fleet.OpSpec{Op: op, ID: r.PathValue("id")}
		if r.Method == http.MethodPost {
			if err := decodeJSON(r, &spec.PhaseRequest); err != nil {
				s.writeError(w, r, err)
				return
			}
		}
		res := s.fleet.Apply(r.Context(), spec)
		var body any
		switch {
		case res.Err != nil:
			s.writeError(w, r, res.Err)
			return
		case res.Reading != nil:
			body = res.Reading
		case res.Odometer != nil:
			body = res.Odometer
		default:
			body = res.Phase
		}
		s.writeJSON(w, http.StatusOK, body)
	}
}

// checkBatchSize validates a batch's item count before any item runs.
func checkBatchSize(n int) error {
	if n == 0 {
		return errors.New("serve: batch must contain at least one item")
	}
	if n > MaxBatchItems {
		return fmt.Errorf("serve: batch of %d items exceeds the limit of %d — split it", n, MaxBatchItems)
	}
	return nil
}

// placeBatch runs a batch's items for chips this node owns through run
// and refuses the rest per item with a wrong_node result (in cluster
// mode a batch can span owners, so it is never forwarded whole; the
// cluster client partitions by owner before sending). Results keep the
// batch's order.
func placeBatch[T, R any](s *Server, items []T, id func(T) string, refuse func(it T, msg, code string) R, run func([]T) []R) []R {
	results := make([]R, len(items))
	owned := make([]T, 0, len(items))
	idx := make([]int, 0, len(items))
	for i, it := range items {
		if !s.ownsChip(id(it)) {
			msg, code := s.wrongNodeItem(id(it))
			results[i] = refuse(it, msg, code)
			continue
		}
		owned = append(owned, it)
		idx = append(idx, i)
	}
	for k, res := range run(owned) {
		results[idx[k]] = res
	}
	return results
}

// handleBatchCreate is POST /v1/chips:batch: bulk fabrication on the
// fleet's worker pool. The response is 200 even when items failed —
// per-item status lives in the results, and callers must check Failed.
func (s *Server) handleBatchCreate(w http.ResponseWriter, r *http.Request) {
	var req BatchCreateRequest
	if err := decodeJSON(r, &req); err != nil {
		s.writeError(w, r, err)
		return
	}
	if err := checkBatchSize(len(req.Chips)); err != nil {
		s.writeError(w, r, err)
		return
	}
	results := placeBatch(s, req.Chips,
		func(c CreateChipRequest) string { return c.ID },
		func(c CreateChipRequest, msg, code string) BatchCreateResult {
			return BatchCreateResult{ID: c.ID, Error: msg, Code: code}
		},
		func(owned []CreateChipRequest) []BatchCreateResult { return s.fleet.CreateBatch(r.Context(), owned) })
	resp := BatchCreateResponse{Results: results}
	created := make([]string, 0, len(results))
	for _, res := range results {
		if res.Error != "" {
			resp.Failed++
		} else {
			resp.Created++
		}
		if res.Error == "" || store.InLog(res.Err) {
			created = append(created, res.ID)
		}
	}
	s.engineObserveCreates(r, created...)
	s.retryIfDegraded(w)
	s.writeJSON(w, http.StatusOK, resp)
}

// handleBatchOps is POST /v1/ops:batch: a mixed stress / rejuvenate /
// measure / odometer batch across many chips, executed concurrently
// where the targets differ. Response semantics match handleBatchCreate.
func (s *Server) handleBatchOps(w http.ResponseWriter, r *http.Request) {
	var req BatchOpsRequest
	if err := decodeJSON(r, &req); err != nil {
		s.writeError(w, r, err)
		return
	}
	if err := checkBatchSize(len(req.Ops)); err != nil {
		s.writeError(w, r, err)
		return
	}
	results := placeBatch(s, req.Ops,
		func(op BatchOpSpec) string { return op.ID },
		func(op BatchOpSpec, msg, code string) BatchOpResult {
			return BatchOpResult{Op: op.Op, ID: op.ID, Error: msg, Code: code}
		},
		func(owned []BatchOpSpec) []BatchOpResult { return s.fleet.ApplyBatch(r.Context(), owned) })
	resp := BatchOpsResponse{Results: results}
	for _, res := range results {
		if res.Error != "" {
			resp.Failed++
		} else {
			resp.Succeeded++
		}
	}
	s.retryIfDegraded(w)
	s.writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handlePredictShift(w http.ResponseWriter, r *http.Request) {
	var req ShiftRequest
	if err := decodeJSON(r, &req); err != nil {
		s.writeError(w, r, err)
		return
	}
	resp, err := s.predict.Shift(r.Context(), req)
	if err != nil {
		s.writeError(w, r, err)
		return
	}
	s.writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handlePredictSchedules(w http.ResponseWriter, r *http.Request) {
	var req SchedulesRequest
	if err := decodeJSON(r, &req); err != nil {
		s.writeError(w, r, err)
		return
	}
	resp, err := s.predict.Schedules(r.Context(), req)
	if err != nil {
		s.writeError(w, r, err)
		return
	}
	s.writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handlePredictMulticore(w http.ResponseWriter, r *http.Request) {
	var req MulticoreRequest
	if err := decodeJSON(r, &req); err != nil {
		s.writeError(w, r, err)
		return
	}
	resp, err := s.predict.Multicore(r.Context(), req)
	if err != nil {
		s.writeError(w, r, err)
		return
	}
	s.writeJSON(w, http.StatusOK, resp)
}
