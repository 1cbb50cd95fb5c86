package serve

import (
	"context"
	"fmt"
	"net/http"
	"strings"
	"testing"

	"selfheal/internal/faults"
	"selfheal/internal/fleet"
	"selfheal/internal/guard"
	"selfheal/internal/store"
)

func TestGuardRoutesDisabled(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var status GuardStatusResponse
	do(t, ts, "GET", "/v1/guard", "", http.StatusOK, &status)
	if status.Enabled || status.Status != nil {
		t.Fatalf("disabled guard status = %+v", status)
	}
	var er ErrorResponse
	do(t, ts, "GET", "/v1/guard/alerts", "", http.StatusNotFound, &er)
	if !strings.Contains(er.Error, "-guard") {
		t.Fatalf("disabled-guard error %q should point at the -guard flag", er.Error)
	}
	do(t, ts, "POST", "/v1/guard/config", `{"spec":"sigma=3"}`, http.StatusNotFound, nil)

	// The guard watches engine snapshots; without an engine there is
	// nothing to watch.
	if _, err := New(Config{GuardEnabled: true}); err == nil {
		t.Fatal("guard without engine accepted")
	}
	// A bad spec fails construction, not first use.
	if _, err := New(Config{EngineEnabled: true, EngineEpoch: -1, GuardEnabled: true, GuardSpec: "sigma=-2"}); err == nil {
		t.Fatal("bad guard spec accepted")
	}
}

func TestGuardConfigRoute(t *testing.T) {
	s, ts := engineTestServer(t, Config{GuardEnabled: true})
	var status GuardStatusResponse
	do(t, ts, "GET", "/v1/guard", "", http.StatusOK, &status)
	if !status.Enabled || status.Status == nil || status.Status.Spec != "" {
		t.Fatalf("stock guard status = %+v", status)
	}
	do(t, ts, "POST", "/v1/guard/config", `{"spec":"sigma=6,streak=3"}`, http.StatusOK, &status)
	if status.Status.Config.SigmaK != 6 || status.Status.Config.Streak != 3 {
		t.Fatalf("reconfigured = %+v", status.Status.Config)
	}
	do(t, ts, "POST", "/v1/guard/config", `{"spec":"streak=0"}`, http.StatusBadRequest, nil)
	// A non-finite value slips every range check unless refused as such.
	for _, spec := range []string{"sigma=NaN", "rate_floor=+Inf", "nominal_vdd=-Inf"} {
		do(t, ts, "POST", "/v1/guard/config", `{"spec":"`+spec+`"}`, http.StatusBadRequest, nil)
	}
	do(t, ts, "GET", "/v1/guard", "", http.StatusOK, &status)
	if status.Status.Config.SigmaK != 6 || status.Status.Config.Streak != 3 {
		t.Fatalf("refused specs changed the config: %+v", status.Status.Config)
	}
	do(t, ts, "GET", "/v1/guard/alerts?limit=bogus", "", http.StatusBadRequest, nil)
	var alerts GuardAlertsResponse
	do(t, ts, "GET", "/v1/guard/alerts?limit=5", "", http.StatusOK, &alerts)
	if alerts.Alerts == nil {
		t.Fatal("alerts list should encode as [], not null")
	}
	if s.GuardService() == nil {
		t.Fatal("GuardService() nil on a guard-enabled server")
	}
}

// TestGuardEndToEnd is the full arena over the HTTP surface with a
// durable store: a seeded adversary attacks fleet chips, the guard
// convicts and quarantines the victim (mutations 503 with the
// "quarantined" code and a Retry-After while reads keep serving, in
// the fleet API and the engine API both), the Prometheus exposition
// carries the guard series — then the process is hard-killed
// mid-quarantine and a fresh server must replay the quarantine
// exactly, lose no acknowledged operation, re-adopt the victim and
// still release it.
func TestGuardEndToEnd(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	adv, err := faults.NewAdversary(faults.AdversaryConfig{Seed: 9, Victims: 1, Start: 4, DenyP: 1})
	if err != nil {
		t.Fatal(err)
	}
	st, _, err := store.Open[*fleet.ChipEntry](dir, store.JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s, ts := newTestServer(t, Config{
		Store: st, EngineEnabled: true, EngineEpoch: -1,
		GuardEnabled: true, Adversary: adv,
	})

	var created BatchCreateResponse
	chips := make([]string, 8)
	items := make([]string, 8)
	for i := range chips {
		chips[i] = fmt.Sprintf("c%02d", i)
		items[i] = fmt.Sprintf(`{"id":%q,"seed":%d,"kind":"monitored"}`, chips[i], i+1)
	}
	do(t, ts, "POST", "/v1/chips:batch", `{"chips":[`+strings.Join(items, ",")+`]}`,
		http.StatusOK, &created)
	if created.Created != 8 {
		t.Fatalf("batch create: %+v", created)
	}

	// Tick until the adversary's victim is convicted and quarantined.
	var victim string
	for i := 0; i < 40 && victim == ""; i++ {
		s.AgingEngine().Tick(ctx)
		if ids := s.Fleet().QuarantinedIDs(); len(ids) > 0 {
			victim = ids[0]
		}
	}
	if victim == "" {
		t.Fatalf("no quarantine after 40 epochs; guard %+v", s.GuardService().StatusSnapshot())
	}

	// Mutations on the quarantined chip refuse 503/"quarantined" with a
	// Retry-After hint; reads keep serving. Same contract on the engine
	// surface, where the adversary's own moves would land.
	resp, body := doRaw(t, ts, "POST", "/v1/chips/"+victim+"/stress",
		`{"temp_c":85,"vdd":1.2,"hours":1}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("stress on quarantined chip: %d %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), `"code": "quarantined"`) {
		t.Fatalf("quarantined 503 body: %s", body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("quarantined 503 missing Retry-After")
	}
	do(t, ts, "GET", "/v1/chips", "", http.StatusOK, nil)
	do(t, ts, "GET", "/v1/engine/chips/"+victim, "", http.StatusOK, nil)
	resp, body = doRaw(t, ts, "POST", "/v1/engine/chips/"+victim+"/condition",
		`{"temp_c":110,"vdd":1.32,"duty":1}`)
	if resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(string(body), "quarantined") {
		t.Fatalf("engine condition on quarantined chip: %d %s", resp.StatusCode, body)
	}
	resp, body = doRaw(t, ts, "POST", "/v1/engine/chips/"+victim+"/schedule",
		`{"stress_epochs":0,"sleep_epochs":0}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("engine schedule on quarantined chip: %d %s", resp.StatusCode, body)
	}

	// The guard's status and alert feed carry the episode.
	var status GuardStatusResponse
	do(t, ts, "GET", "/v1/guard", "", http.StatusOK, &status)
	if len(status.Status.Quarantined) != 1 || status.Status.Quarantined[0].Chip != victim {
		t.Fatalf("guard roster = %+v", status.Status.Quarantined)
	}
	if status.Status.Adversary == nil || len(status.Status.Adversary.Victims) != 1 {
		t.Fatalf("guard adversary view = %+v", status.Status.Adversary)
	}
	var alerts GuardAlertsResponse
	do(t, ts, "GET", "/v1/guard/alerts", "", http.StatusOK, &alerts)
	seen := map[guard.AlertKind]bool{}
	for _, a := range alerts.Alerts {
		seen[a.Kind] = true
	}
	for _, k := range []guard.AlertKind{guard.AlertOutlier, guard.AlertQuarantined, guard.AlertRemapped, guard.AlertRejuvenating} {
		if !seen[k] {
			t.Fatalf("missing %s alert; got %v", k, seen)
		}
	}

	// The Prometheus exposition carries the guard series.
	resp, body = doRaw(t, ts, "GET", "/metrics?format=prometheus", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: %d", resp.StatusCode)
	}
	for _, name := range []string{
		"guard_alerts_total", "guard_quarantined_chips 1", "guard_remaps_total",
		"guard_rejuvenation_epochs_total", "guard_spare_free_cells",
		`guard_chip_quarantined{chip="` + victim + `"} 1`,
	} {
		if !strings.Contains(string(body), name) {
			t.Fatalf("prometheus body missing %q", name)
		}
	}

	// Hard kill mid-quarantine: close the transport and the store with
	// the victim still held. Nothing is released first.
	preKill := s.Fleet().QuarantinedIDs()
	preLen := s.Fleet().Len()
	ts.Close()
	s.Close()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Replay: the quarantine set is restored exactly, no acked create
	// is lost, and the fresh guard re-adopts the victim.
	st2, _, err := store.Open[*fleet.ChipEntry](dir, store.JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	s2, ts2 := newTestServer(t, Config{
		Store: st2, EngineEnabled: true, EngineEpoch: -1, GuardEnabled: true,
	})
	defer ts2.Close()
	if got := s2.Fleet().QuarantinedIDs(); len(got) != 1 || got[0] != preKill[0] {
		t.Fatalf("replayed quarantine = %v, want %v", got, preKill)
	}
	if s2.Fleet().Len() != preLen {
		t.Fatalf("replayed fleet size %d, want %d", s2.Fleet().Len(), preLen)
	}
	resp, body = doRaw(t, ts2, "POST", "/v1/chips/"+victim+"/stress",
		`{"temp_c":85,"vdd":1.2,"hours":1}`)
	if resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(string(body), "quarantined") {
		t.Fatalf("replayed quarantine refusal: %d %s", resp.StatusCode, body)
	}

	// The adopted victim heals and is released — a restart never
	// strands a chip in quarantine.
	released := false
	for i := 0; i < 40 && !released; i++ {
		s2.AgingEngine().Tick(ctx)
		released = len(s2.Fleet().QuarantinedIDs()) == 0
	}
	if !released {
		t.Fatalf("victim stranded after restart; guard %+v", s2.GuardService().StatusSnapshot())
	}
	do(t, ts2, "POST", "/v1/chips/"+victim+"/stress",
		`{"temp_c":85,"vdd":1.2,"hours":1}`, http.StatusOK, nil)
}
