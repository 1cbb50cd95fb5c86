package serve

import (
	"context"
	"fmt"
	"net/http"
	"sync/atomic"
	"testing"
	"time"

	"selfheal/internal/fleet"
	"selfheal/internal/journal"
	"selfheal/internal/store"
)

// indeterminateLog appends through the journal and then, while armed,
// reports the append as store.ErrIndeterminate, as a semisync primary
// does when its follower's ack times out.
type indeterminateLog struct {
	*journal.Journal
	armed atomic.Bool
}

func (l *indeterminateLog) AppendBatch(ctx context.Context, recs []store.Record) error {
	if err := l.Journal.AppendBatch(ctx, recs); err != nil {
		return err
	}
	if l.armed.Load() {
		return fmt.Errorf("ack: %w", store.ErrIndeterminate)
	}
	return nil
}

// TestIndeterminateFleetWritesReachTheEngine: a fleet create (single or
// batch) or delete whose commit fails as store.ErrIndeterminate stays
// applied in the fleet, so its engine twin is registered or dropped
// too, while the response is still 503 degraded.
func TestIndeterminateFleetWritesReachTheEngine(t *testing.T) {
	j, err := journal.Open(t.TempDir(), journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	log := &indeterminateLog{Journal: j}
	st := store.NewJournaled[*fleet.ChipEntry](store.NewMem[*fleet.ChipEntry](), log)
	t.Cleanup(func() { st.Close() })
	_, ts := engineTestServer(t, Config{
		Store:            st,
		ProbeInterval:    2 * time.Millisecond,
		ProbeMaxInterval: 10 * time.Millisecond,
	})
	do(t, ts, "POST", "/v1/chips", `{"id":"c0","seed":7}`, http.StatusCreated, nil)

	// Each failed commit trips the gate; its probe passes at once, so
	// wait for write mode before the next write.
	writable := func() {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for {
			resp, _ := doRaw(t, ts, "GET", "/readyz", "")
			if resp.StatusCode == http.StatusOK {
				return
			}
			if time.Now().After(deadline) {
				t.Fatal("write mode never came back")
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	log.armed.Store(true)
	resp, raw := doRaw(t, ts, "POST", "/v1/chips", `{"id":"c1","seed":8}`)
	wantDegraded(t, "indeterminate create", resp, raw)
	writable()
	var batch BatchCreateResponse
	do(t, ts, "POST", "/v1/chips:batch", `{"chips":[{"id":"c2","seed":9}]}`, http.StatusOK, &batch)
	if batch.Failed != 1 {
		t.Fatalf("indeterminate batch create: %+v, want one failed item", batch)
	}
	writable()
	resp, raw = doRaw(t, ts, "DELETE", "/v1/chips/c0", "")
	wantDegraded(t, "indeterminate delete", resp, raw)
	log.armed.Store(false)
	writable()

	var list ChipListResponse
	do(t, ts, "GET", "/v1/chips", "", http.StatusOK, &list)
	inFleet := map[string]bool{}
	for _, c := range list.Chips {
		inFleet[c.ID] = true
	}
	for id, want := range map[string]int{"c0": http.StatusNotFound, "c1": http.StatusOK, "c2": http.StatusOK} {
		if inFleet[id] != (want == http.StatusOK) {
			t.Fatalf("fleet holds %v, want c1 and c2", list.Chips)
		}
		do(t, ts, "GET", "/v1/engine/chips/"+id, "", want, nil)
	}
}
