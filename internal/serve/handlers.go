package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"selfheal/internal/faults"
	"selfheal/internal/fleet"
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

// writeError classifies an error into a status code: missing chips are
// 404, duplicate ids and kind mismatches 409, an oversized body 413, a
// cancelled or timed-out request 503, injected faults 500, everything
// else a validation 400. A store commit failure is the storage wearing
// out, not a bug: it answers 503 with the `degraded` code and a
// Retry-After, and trips the degraded-mode supervisor so subsequent
// writes are rejected at the gate while the recovery probe works. The
// response carries the request ID so failures are correlatable in the
// logs.
func (s *Server) writeError(w http.ResponseWriter, r *http.Request, err error) {
	status := http.StatusBadRequest
	code := ""
	var dup fleet.DuplicateError
	var missing fleet.NotFoundError
	var notDurable fleet.NotDurableError
	var quarantined fleet.QuarantinedError
	var tooBig *http.MaxBytesError
	if st, ok := engineErrorStatus(err); ok {
		s.writeJSON(w, st, ErrorResponse{
			Error:     err.Error(),
			RequestID: RequestIDFrom(r.Context()),
		})
		return
	}
	switch {
	case errors.As(err, &missing):
		status = http.StatusNotFound
	case errors.As(err, &dup), errors.Is(err, fleet.ErrKindMismatch):
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
		// still a real durability failure from the fleet's view.
		status = http.StatusServiceUnavailable
		code = CodeDegraded
		w.Header().Set("Retry-After", s.retryAfterSecs())
		s.gate.trip(r.Context(), err)
	case errors.Is(err, faults.ErrInjected):
		status = http.StatusInternalServerError
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		status = http.StatusServiceUnavailable
	}
	s.writeJSON(w, status, ErrorResponse{
		Error:     err.Error(),
		Code:      code,
		RequestID: RequestIDFrom(r.Context()),
	})
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

// tripOnBatchFailures scans a batch's per-item errors for durability
// failures and trips the degraded-mode supervisor on the first one, so
// a batch that wore out the storage suspends subsequent writes exactly
// like a single failed request would.
func (s *Server) tripOnBatchFailures(w http.ResponseWriter, r *http.Request, errs []error) {
	for _, err := range errs {
		var notDurable fleet.NotDurableError
		if errors.As(err, &notDurable) {
			w.Header().Set("Retry-After", s.retryAfterSecs())
			s.gate.trip(r.Context(), err)
			return
		}
	}
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
	// In cluster mode, items for chips other nodes own are refused per
	// item (a batch can span owners, so it is never forwarded whole);
	// the cluster client partitions by owner before sending.
	results := make([]BatchCreateResult, len(req.Chips))
	owned := make([]CreateChipRequest, 0, len(req.Chips))
	idx := make([]int, 0, len(req.Chips))
	for i, sp := range req.Chips {
		if !s.ownsChip(sp.ID) {
			msg, code := s.wrongNodeItem(sp.ID)
			results[i] = BatchCreateResult{ID: sp.ID, Error: msg, Code: code}
			continue
		}
		owned = append(owned, sp)
		idx = append(idx, i)
	}
	for k, res := range s.fleet.CreateBatch(r.Context(), owned) {
		results[idx[k]] = res
	}
	resp := BatchCreateResponse{Results: results}
	errs := make([]error, 0, len(results))
	created := make([]string, 0, len(results))
	for _, res := range results {
		if res.Err != nil || res.Error != "" {
			resp.Failed++
			if res.Err != nil {
				errs = append(errs, res.Err)
			}
		} else {
			resp.Created++
			created = append(created, res.ID)
		}
	}
	s.engineObserveCreates(r, created...)
	s.tripOnBatchFailures(w, r, errs)
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
	// Placement enforcement mirrors handleBatchCreate.
	results := make([]BatchOpResult, len(req.Ops))
	owned := make([]BatchOpSpec, 0, len(req.Ops))
	idx := make([]int, 0, len(req.Ops))
	for i, op := range req.Ops {
		if !s.ownsChip(op.ID) {
			msg, code := s.wrongNodeItem(op.ID)
			results[i] = BatchOpResult{Op: op.Op, ID: op.ID, Error: msg, Code: code}
			continue
		}
		owned = append(owned, op)
		idx = append(idx, i)
	}
	for k, res := range s.fleet.ApplyBatch(r.Context(), owned) {
		results[idx[k]] = res
	}
	resp := BatchOpsResponse{Results: results}
	errs := make([]error, 0, len(results))
	for _, res := range results {
		if res.Err != nil || res.Error != "" {
			resp.Failed++
			if res.Err != nil {
				errs = append(errs, res.Err)
			}
		} else {
			resp.Succeeded++
		}
	}
	s.tripOnBatchFailures(w, r, errs)
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
