package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"

	"selfheal/internal/engine"
	"selfheal/internal/fleet"
)

// engineFleetDefault is the condition fleet chips simulate under in
// the aging engine: DC stress at the service's nominal corner. The
// fleet API's explicit stress/rejuvenate phases stay authoritative for
// sensor reads; the engine's copy exists so fleet chips show up in
// whole-fleet epoch advancement and the odometer telemetry.
var engineFleetDefault = engine.Spec{TempC: 80, Vdd: 1.2, Duty: 1}

// The engine's write bodies are its own types (see engine.Spec), aliased
// here beside the engine's response types.
type (
	// EngineSchedule is the wire form of a circadian stress/sleep
	// cycle. Both epoch counts zero cancels the cycle.
	EngineSchedule = engine.Schedule
	// EngineChipSpec registers one chip with the aging engine.
	EngineChipSpec = engine.Spec
	// EngineConditionRequest is the POST
	// /v1/engine/chips/{id}/condition body: the chip's new phase,
	// corner, and duty cycle.
	EngineConditionRequest = engine.Cond
)

// EngineRegisterRequest is the POST /v1/engine/chips:batch body.
type EngineRegisterRequest struct {
	Chips []EngineChipSpec `json:"chips"`
}

// EngineRegisterResult is one item's outcome in an
// EngineRegisterResponse.
type EngineRegisterResult struct {
	ID         string `json:"id"`
	Registered bool   `json:"registered"`
	Error      string `json:"error,omitempty"`
}

// EngineRegisterResponse reports a bulk registration; per-item status
// is in Results and callers must check Failed.
type EngineRegisterResponse struct {
	Results    []EngineRegisterResult `json:"results"`
	Registered int                    `json:"registered"`
	Failed     int                    `json:"failed"`
}

// EngineStatusResponse is the GET /v1/engine body.
type EngineStatusResponse struct {
	Enabled bool          `json:"enabled"`
	Stats   *engine.Stats `json:"stats,omitempty"`
}

// EngineDeleteResponse confirms DELETE /v1/engine/chips/{id}.
type EngineDeleteResponse struct {
	ID      string `json:"id"`
	Removed bool   `json:"removed"`
}

// EngineTickRequest is the POST /v1/engine/tick body. The body may be
// omitted entirely; it defaults to a single epoch.
type EngineTickRequest struct {
	Epochs uint64 `json:"epochs"`
}

// EngineTickResponse reports the epoch after a manual advance.
type EngineTickResponse struct {
	Ticked uint64 `json:"ticked"`
	Epoch  uint64 `json:"epoch"`
}

// AgingEngine returns the fleet aging engine, or nil when the service
// runs without one (exported for tests and embedders).
func (s *Server) AgingEngine() *engine.Engine { return s.aging }

// requireEngine 404s engine routes when the engine is not enabled.
func (s *Server) requireEngine(w http.ResponseWriter, r *http.Request) bool {
	if s.aging != nil {
		return true
	}
	s.writeJSON(w, http.StatusNotFound, ErrorResponse{
		Error:     "serve: fleet aging engine not enabled; start the service with -engine",
		RequestID: RequestIDFrom(r.Context()),
	})
	return false
}

func (s *Server) handleEngineStatus(w http.ResponseWriter, r *http.Request) {
	if s.aging == nil {
		s.writeJSON(w, http.StatusOK, EngineStatusResponse{Enabled: false})
		return
	}
	st := s.aging.Stats()
	s.writeJSON(w, http.StatusOK, EngineStatusResponse{Enabled: true, Stats: &st})
}

func (s *Server) handleEngineChip(w http.ResponseWriter, r *http.Request) {
	if !s.requireEngine(w, r) {
		return
	}
	id := r.PathValue("id")
	cv, ok := s.aging.Snapshot().Chip(id)
	if !ok {
		s.writeError(w, r, engine.NotFoundError{ID: id})
		return
	}
	s.writeJSON(w, http.StatusOK, cv)
}

func (s *Server) handleEngineRegister(w http.ResponseWriter, r *http.Request) {
	if !s.requireEngine(w, r) {
		return
	}
	var req EngineRegisterRequest
	if err := decodeJSON(r, &req); err != nil {
		s.writeError(w, r, err)
		return
	}
	if err := checkBatchSize(len(req.Chips)); err != nil {
		s.writeError(w, r, err)
		return
	}
	regs, err := s.aging.RegisterBatch(r.Context(), req.Chips)
	if err != nil {
		s.writeError(w, r, err)
		return
	}
	resp := EngineRegisterResponse{Results: make([]EngineRegisterResult, len(regs))}
	for i, res := range regs {
		resp.Results[i] = EngineRegisterResult{ID: res.ID, Registered: res.Err == nil}
		if res.Err != nil {
			resp.Results[i].Error = res.Err.Error()
			resp.Failed++
		} else {
			resp.Registered++
		}
	}
	s.retryIfDegraded(w)
	s.writeJSON(w, http.StatusOK, resp)
}

// engineChipQuarantined refuses engine mutations against a chip the
// guard has quarantined: the healing schedule owns its condition until
// release, and an external condition or schedule write (the exact
// moves the adversary makes) would undo the rejuvenation. Engine-only
// chips (no fleet twin) are never quarantined.
func (s *Server) engineChipQuarantined(w http.ResponseWriter, r *http.Request, id string) bool {
	if s.fleet == nil || !s.fleet.Quarantined(id) {
		return false
	}
	reason := ""
	if entry, ok := s.fleet.Get(id); ok {
		_, reason = entry.Quarantined()
	}
	s.writeError(w, r, fleet.QuarantinedError{ID: id, Reason: reason})
	return true
}

func (s *Server) handleEngineCondition(w http.ResponseWriter, r *http.Request) {
	if !s.requireEngine(w, r) {
		return
	}
	var req EngineConditionRequest
	if err := decodeJSON(r, &req); err != nil {
		s.writeError(w, r, err)
		return
	}
	id := r.PathValue("id")
	if s.engineChipQuarantined(w, r, id) {
		return
	}
	if err := s.aging.SetCondition(r.Context(), id, req); err != nil {
		s.writeError(w, r, err)
		return
	}
	cv, _ := s.aging.Snapshot().Chip(id)
	s.writeJSON(w, http.StatusOK, cv)
}

func (s *Server) handleEngineSchedule(w http.ResponseWriter, r *http.Request) {
	if !s.requireEngine(w, r) {
		return
	}
	var req EngineSchedule
	if err := decodeJSON(r, &req); err != nil {
		s.writeError(w, r, err)
		return
	}
	id := r.PathValue("id")
	if s.engineChipQuarantined(w, r, id) {
		return
	}
	if err := s.aging.SetSchedule(r.Context(), id, req); err != nil {
		s.writeError(w, r, err)
		return
	}
	cv, _ := s.aging.Snapshot().Chip(id)
	s.writeJSON(w, http.StatusOK, cv)
}

func (s *Server) handleEngineDelete(w http.ResponseWriter, r *http.Request) {
	if !s.requireEngine(w, r) {
		return
	}
	id := r.PathValue("id")
	if err := s.aging.Remove(r.Context(), id); err != nil {
		s.writeError(w, r, err)
		return
	}
	s.writeJSON(w, http.StatusOK, EngineDeleteResponse{ID: id, Removed: true})
}

// engineObserveCreates mirrors freshly fabricated fleet chips into the
// aging engine under the default fleet condition: chips whose create
// committed, and chips whose create failed as store.ErrIndeterminate,
// which the fleet keeps (store.InLog). Registration failures are
// logged, not surfaced: the fleet create already committed, and the
// startup SyncFleet reconciles any gap on the next boot.
func (s *Server) engineObserveCreates(r *http.Request, ids ...string) {
	if s.aging == nil || len(ids) == 0 {
		return
	}
	specs := make([]engine.Spec, len(ids))
	for i, id := range ids {
		sp := engineFleetDefault
		sp.ID = id
		sp.Kind = engine.KindFleet
		specs[i] = sp
	}
	regs, err := s.aging.RegisterBatch(r.Context(), specs)
	if err != nil {
		s.log.WarnContext(r.Context(), "engine registration failed", "chips", len(ids), "err", err)
		return
	}
	for _, res := range regs {
		var dup engine.DuplicateError
		if res.Err != nil && !errors.As(res.Err, &dup) {
			s.log.WarnContext(r.Context(), "engine registration failed", "chip", res.ID, "err", res.Err)
		}
	}
}

// engineObserveDelete drops a fleet chip's engine twin after the
// fleet delete committed, or failed as store.ErrIndeterminate. No
// engine record is written: the twin's engine records stay live until
// the next engine checkpoint, so a restart before it replays the twin,
// and SyncFleet drops it at boot.
func (s *Server) engineObserveDelete(r *http.Request, id string) {
	if s.aging == nil {
		return
	}
	err := s.aging.ObserveFleetDelete(r.Context(), id)
	var missing engine.NotFoundError
	if err != nil && !errors.As(err, &missing) {
		s.log.WarnContext(r.Context(), "engine removal failed", "chip", id, "err", err)
	}
}

// syncEngineFleet reconciles engine membership with the fleet at
// startup: fleet chips missing from the engine (a crash between a
// fleet create's commit and its engine registration, or a fleet that
// predates the engine) register under the default condition, and
// fleet-backed engine chips whose fleet chip is gone are dropped.
func (s *Server) syncEngineFleet() error {
	list := s.fleet.List()
	ids := make([]string, len(list))
	for i, c := range list {
		ids[i] = c.ID
	}
	regs, err := s.aging.SyncFleet(context.Background(), ids, engineFleetDefault)
	if err != nil {
		return err
	}
	synced := 0
	for _, res := range regs {
		if res.Err != nil {
			s.log.Warn("engine fleet sync: registration failed", "chip", res.ID, "err", res.Err)
		} else {
			synced++
		}
	}
	if synced > 0 {
		s.log.Info("engine fleet sync: registered missing fleet chips", "chips", synced)
	}
	return nil
}

// maxTickEpochs bounds one POST /v1/engine/tick request; advancing a
// simulation further belongs in a loop the caller paces.
const maxTickEpochs = 10_000

// handleEngineTick advances the engine clock by hand. It only exists
// on a manual clock (-epoch < 0) — with a wall-clock ticker running,
// two clock owners would interleave epochs unpredictably, so the
// route refuses with 409. Deterministic drivers (guard-smoke, demos,
// red-team replays) boot manual and pace the simulation themselves.
func (s *Server) handleEngineTick(w http.ResponseWriter, r *http.Request) {
	if !s.requireEngine(w, r) {
		return
	}
	if !s.manual {
		s.writeJSON(w, http.StatusConflict, ErrorResponse{
			Error:     "serve: engine clock is wall-driven; manual ticks need -epoch < 0",
			RequestID: RequestIDFrom(r.Context()),
		})
		return
	}
	req := EngineTickRequest{Epochs: 1}
	if r.ContentLength != 0 {
		if err := decodeJSON(r, &req); err != nil {
			s.writeError(w, r, err)
			return
		}
	}
	if req.Epochs < 1 || req.Epochs > maxTickEpochs {
		s.writeJSON(w, http.StatusBadRequest, ErrorResponse{
			Error:     fmt.Sprintf("serve: tick epochs must be in [1,%d], got %d", maxTickEpochs, req.Epochs),
			RequestID: RequestIDFrom(r.Context()),
		})
		return
	}
	for i := uint64(0); i < req.Epochs; i++ {
		if r.Context().Err() != nil {
			s.writeError(w, r, r.Context().Err())
			return
		}
		s.aging.Tick(r.Context())
	}
	s.writeJSON(w, http.StatusOK, EngineTickResponse{
		Ticked: req.Epochs, Epoch: s.aging.Stats().Epoch,
	})
}
