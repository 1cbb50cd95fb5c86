// Command cluster-smoke is the failover smoke test CI runs after the
// guard smoke: it builds selfheal-serve and boots a three-primary
// fleet (consistent-hash placement, durable journals, node "a" in
// semisync replication to a hot standby), loads 100k chips through the
// batch APIs with the routing cluster client, keeps mutation workers
// running, and then kill -9s node "a" mid-traffic. The surviving
// shards must keep serving throughout, the standby must promote over
// the replicated journal via POST /v1/cluster/promote, the peers and
// the client repoint "a" at the standby's address — and the audit must
// find every acknowledged operation intact: all acked creates present
// in the fleet, every chip's replayed op count at or above its acked
// count, and /readyz converged to 200 on all three node ids.
//
// Scale and build knobs (CI runs both a full pass and a race-detector
// pass at reduced scale):
//
//	CLUSTER_SMOKE_CHIPS  fleet size (default 100000; 5000 under race)
//	CLUSTER_SMOKE_RACE   1 builds the server binary with -race
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"selfheal/client"
	"selfheal/scripts/internal/harness"
)

const (
	batchSize    = 1_000
	workers      = 8
	stressHours  = 0.5
	trafficBeat  = 700 * time.Millisecond // per traffic window below
	httpDeadline = 120 * time.Second
)

type node struct {
	*harness.Server
	id      string
	addr    string // http listen addr
	repl    string // repl listen addr (primaries)
	dataDir string
}

func (n *node) start(bin, peers string, extra ...string) {
	n.Server = harness.Start("node "+n.id, bin, n.addr, os.Stdout, os.Stderr, append([]string{
		"-data", n.dataDir,
		"-node-id", n.id,
		"-peers", peers,
		"-log-level", "error",
		"-grace", "2s",
	}, extra...)...)
}

// clusterStatus mirrors the GET /v1/cluster fields the smoke reads.
type clusterStatus struct {
	NodeID string `json:"node_id"`
	Role   string `json:"role"`
	Peers  []struct {
		ID   string `json:"id"`
		Addr string `json:"addr"`
	} `json:"peers"`
	Repl *struct {
		Role      string `json:"role"`
		Connected bool   `json:"connected"`
		LastSeq   uint64 `json:"last_seq"`
	} `json:"repl,omitempty"`
}

func clusterOf(base string) clusterStatus {
	var cs clusterStatus
	if err := json.Unmarshal(harness.MustGet(base+"/v1/cluster", http.StatusOK), &cs); err != nil {
		harness.Fatalf("decode cluster status: %v", err)
	}
	return cs
}

// ackCounter tracks acknowledged (HTTP-success) mutations per chip —
// the ground truth the post-failover audit replays against.
type ackCounter struct {
	mu   sync.Mutex
	byID map[string]uint64
}

func (a *ackCounter) add(id string) {
	a.mu.Lock()
	a.byID[id]++
	a.mu.Unlock()
}

func (a *ackCounter) snapshot() map[string]uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make(map[string]uint64, len(a.byID))
	for k, v := range a.byID {
		out[k] = v
	}
	return out
}

func main() {
	start := time.Now()
	chips := 100_000
	race := os.Getenv("CLUSTER_SMOKE_RACE") == "1"
	if race {
		chips = 5_000
	}
	if v := os.Getenv("CLUSTER_SMOKE_CHIPS"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 100 {
			harness.Fatalf("bad CLUSTER_SMOKE_CHIPS %q", v)
		}
		chips = n
	}

	harness.Client.Timeout = httpDeadline

	tmp, err := os.MkdirTemp("", "cluster-smoke-")
	if err != nil {
		harness.Fatalf("mkdtemp: %v", err)
	}
	defer os.RemoveAll(tmp)
	bin := harness.Build(tmp, race)

	// Ring: three primaries; "a" runs semisync into a hot standby (it
	// is the one we kill), "b" and "c" replicate async.
	nodes := map[string]*node{}
	for _, id := range []string{"a", "b", "c"} {
		nodes[id] = &node{
			id:      id,
			addr:    harness.FreePort(),
			repl:    harness.FreePort(),
			dataDir: filepath.Join(tmp, "data-"+id),
		}
	}
	peerSpecs := make([]string, 0, 3)
	for _, id := range []string{"a", "b", "c"} {
		peerSpecs = append(peerSpecs, id+"=http://"+nodes[id].addr)
	}
	peers := strings.Join(peerSpecs, ",")

	nodes["a"].start(bin, peers, "-repl-listen", nodes["a"].repl, "-repl-mode", "semisync")
	nodes["b"].start(bin, peers, "-repl-listen", nodes["b"].repl, "-repl-mode", "async")
	nodes["c"].start(bin, peers, "-repl-listen", nodes["c"].repl, "-repl-mode", "async")
	defer func() {
		for _, n := range nodes {
			n.Kill()
		}
	}()
	for _, id := range []string{"a", "b", "c"} {
		nodes[id].WaitHealthy(15 * time.Second)
	}

	// The hot standby tails a's journal and will take over a's ring id.
	standby := &node{id: "a", addr: harness.FreePort(), dataDir: filepath.Join(tmp, "data-standby")}
	standby.start(bin, peers,
		"-repl-follow", nodes["a"].repl,
		"-advertise", "http://"+standby.addr)
	standby.Name = "standby"
	defer standby.Kill()
	standby.WaitHealthy(15 * time.Second)
	if st, _ := harness.Get(standby.Base + "/readyz"); st != http.StatusServiceUnavailable {
		harness.Fatalf("standby /readyz = %d, want 503 before promotion", st)
	}
	for deadline := time.Now().Add(15 * time.Second); ; {
		if cs := clusterOf(nodes["a"].Base); cs.Repl != nil && cs.Repl.Connected {
			break
		}
		if time.Now().After(deadline) {
			harness.Fatalf("standby never attached to a's semisync stream")
		}
		time.Sleep(50 * time.Millisecond)
	}
	fmt.Printf("cluster-smoke: 3 primaries + standby up (%d chips, race=%v)\n", chips, race)

	// Load the fleet through the routing client's batch partitioner.
	peerURLs := map[string]string{"a": nodes["a"].Base, "b": nodes["b"].Base, "c": nodes["c"].Base}
	cl, err := client.NewCluster(peerURLs, 0, client.WithHTTPClient(&http.Client{Timeout: httpDeadline}))
	if err != nil {
		harness.Fatalf("cluster client: %v", err)
	}
	ctx := context.Background()
	ids := make([]string, chips)
	for i := range ids {
		ids[i] = fmt.Sprintf("k%06d", i)
	}
	for lo := 0; lo < chips; lo += batchSize {
		hi := lo + batchSize
		if hi > chips {
			hi = chips
		}
		specs := make([]client.CreateChipRequest, 0, hi-lo)
		for i := lo; i < hi; i++ {
			// Monitored dies skip the bench burn-in sim: at 100k chips
			// fabrication, not the journal, is the load-time bottleneck.
			specs = append(specs, client.CreateChipRequest{ID: ids[i], Seed: uint64(i + 1), Kind: "monitored"})
		}
		resp, err := cl.BatchCreateChips(ctx, specs)
		if err != nil {
			harness.Fatalf("batch create [%d,%d): %v", lo, hi, err)
		}
		if resp.Failed != 0 {
			for _, r := range resp.Results {
				if r.Error != "" {
					harness.Fatalf("batch create [%d,%d): chip %s: %s", lo, hi, r.ID, r.Error)
				}
			}
		}
	}
	fmt.Printf("cluster-smoke: %d chips created via batch APIs in %.1fs\n", chips, time.Since(start).Seconds())

	// Every created chip is an acked mutation; audit ground truth.
	acks := &ackCounter{byID: make(map[string]uint64, chips)}
	owners := make(map[string]string, chips)
	perOwner := map[string]*atomic.Uint64{"a": {}, "b": {}, "c": {}}
	for _, id := range ids {
		owners[id] = cl.Owner(id)
	}

	// Sustained mutation traffic: workers stress random-ish chips and
	// count only HTTP-acknowledged successes, per chip and per owner.
	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; !stop.Load(); i += workers {
				id := ids[i%len(ids)]
				_, err := cl.Stress(ctx, id, client.PhaseRequest{TempC: 80, Vdd: 1.0, Hours: stressHours})
				if err == nil {
					acks.add(id)
					perOwner[owners[id]].Add(1)
				} else {
					// Expected during the outage (dead node, open breaker);
					// don't let fast-fails spin a core the failover needs.
					time.Sleep(5 * time.Millisecond)
				}
			}
		}(w)
	}
	waitProgress := func(what string, deadline time.Duration, counters ...*atomic.Uint64) {
		before := make([]uint64, len(counters))
		for i, c := range counters {
			before[i] = c.Load()
		}
		end := time.Now().Add(deadline)
		for {
			advanced := true
			for i, c := range counters {
				if c.Load() == before[i] {
					advanced = false
				}
			}
			if advanced {
				return
			}
			if time.Now().After(end) {
				harness.Fatalf("%s: no acked writes within %v", what, deadline)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
	waitProgress("warm-up traffic", time.Minute, perOwner["a"], perOwner["b"], perOwner["c"])
	time.Sleep(trafficBeat)

	// kill -9 the semisync primary mid-traffic.
	if err := nodes["a"].Kill(); err != nil {
		harness.Fatalf("kill -9 node a: %v", err)
	}
	fmt.Println("cluster-smoke: node a killed (SIGKILL) mid-traffic")

	// Surviving shards must keep taking writes while a is down.
	waitProgress("surviving shards during the outage", time.Minute, perOwner["b"], perOwner["c"])

	// Promote the standby over the replicated journal, then repoint
	// node id "a" everywhere: surviving peers and the routing client.
	// Promotion replays (re-fabricates) a's whole shard inside this one
	// request, so it gets its own generous deadline.
	promoteHC := &http.Client{Timeout: 15 * time.Minute}
	resp, err := promoteHC.Post(standby.Base+"/v1/cluster/promote", "application/json", nil)
	if err != nil {
		harness.Fatalf("promote: %v", err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	st := resp.StatusCode
	if st != http.StatusOK {
		harness.Fatalf("promote: status %d: %s", st, raw)
	}
	var promoted struct {
		Chips    int `json:"chips"`
		Replayed int `json:"replayed_records"`
	}
	if err := json.Unmarshal(raw, &promoted); err != nil {
		harness.Fatalf("decode promote response: %v", err)
	}
	for _, id := range []string{"b", "c"} {
		body := fmt.Sprintf(`{"id":"a","addr":%q}`, standby.Base)
		if st, raw := harness.Post(nodes[id].Base+"/v1/cluster/peers", body); st != http.StatusOK {
			harness.Fatalf("repoint a on node %s: status %d: %s", id, st, raw)
		}
	}
	if err := cl.SetPeerAddr("a", standby.Base); err != nil {
		harness.Fatalf("client repoint: %v", err)
	}
	fmt.Printf("cluster-smoke: standby promoted as node a (%d chips, %d records replayed)\n",
		promoted.Chips, promoted.Replayed)

	// The failed-over shard must take writes again. Generous deadline:
	// on a loaded box in-flight calls to the survivors can hold every
	// worker for seconds before one reaches an a-owned chip.
	waitProgress("shard a after promotion", 2*time.Minute, perOwner["a"])
	stop.Store(true)
	wg.Wait()

	// Audit 1: zero acked-op loss. Every created chip exists, and every
	// chip's replayed op count is at or above its acked mutation count
	// (creates + stresses; sensor reads would only add to it).
	audit := acks.snapshot()
	listed, err := cl.ListChips(ctx)
	if err != nil {
		harness.Fatalf("post-failover list: %v", err)
	}
	present := make(map[string]bool, len(listed))
	for _, ch := range listed {
		present[ch.ID] = true
	}
	for _, id := range ids {
		if !present[id] {
			harness.Fatalf("acked chip %s lost in failover (owner %s)", id, owners[id])
		}
	}
	type usage struct {
		Ops uint64 `json:"ops"`
	}
	opsByID := make(map[string]uint64, chips)
	for id, base := range map[string]string{"a": standby.Base, "b": nodes["b"].Base, "c": nodes["c"].Base} {
		st, raw := harness.Get(base + "/metrics")
		if st != http.StatusOK {
			harness.Fatalf("metrics on %s: status %d", id, st)
		}
		var snap struct {
			Chips map[string]usage `json:"chips"`
		}
		if err := json.Unmarshal(raw, &snap); err != nil {
			harness.Fatalf("decode metrics on %s: %v", id, err)
		}
		for chip, u := range snap.Chips {
			if u.Ops > opsByID[chip] {
				opsByID[chip] = u.Ops
			}
		}
	}
	var audited int
	for id, acked := range audit {
		// Ops counts stress/rejuvenate/measure/odometer; the create is
		// audited by presence above.
		if opsByID[id] < acked {
			harness.Fatalf("chip %s (owner %s): %d ops replayed, but %d were acked",
				id, owners[id], opsByID[id], acked)
		}
		audited++
	}

	// Audit 2: /readyz converges to 200 on every node id, with the
	// promoted standby answering for "a".
	bases := map[string]string{"a": standby.Base, "b": nodes["b"].Base, "c": nodes["c"].Base}
	for id, base := range bases {
		ok := false
		for deadline := time.Now().Add(15 * time.Second); time.Now().Before(deadline); {
			if st, _ := harness.Get(base + "/readyz"); st == http.StatusOK {
				ok = true
				break
			}
			time.Sleep(100 * time.Millisecond)
		}
		if !ok {
			harness.Fatalf("node %s /readyz never converged to 200", id)
		}
	}
	if cs := clusterOf(nodes["b"].Base); true {
		found := false
		for _, p := range cs.Peers {
			if p.ID == "a" && p.Addr == standby.Base {
				found = true
			}
		}
		if !found {
			harness.Fatalf("node b's ring never learned a's new address: %+v", cs.Peers)
		}
	}

	fmt.Printf("cluster-smoke: PASS in %.1fs — %d chips, %d chips audited with zero acked-op loss, ready on all 3 nodes\n",
		time.Since(start).Seconds(), chips, audited)
}
