// Command telemetry-smoke is the observability smoke test CI runs
// after the cluster smoke: it builds selfheal-serve, boots a
// three-primary fleet with the aging engine ticking on a fast wall
// clock (node "a" in semisync replication to a hot standby), creates
// chips through the routing client, then drives mutations at the
// WRONG node with a hand-minted Traceparent so the 307 wrong_node
// forward carries the trace to the owner. It asserts:
//
//   - the minted trace id appears in /debug/traces on BOTH the
//     forwarder and the owner, each half labelled with its node_id
//     (cross-node trace stitching, end to end over real processes);
//   - GET /v1/fleet/telemetry from any node returns per-epoch series
//     for every live peer with zero stale sections;
//   - the margin-recovery SLO — the paper's ≥90% headline held as a
//     standing objective — is green on every node;
//   - /metrics?federate=1 exposes per-node scrape health;
//   - after kill -9 of node "c", the fleet view from "a" marks "c"
//     stale with an error while the survivors stay fresh: a dead node
//     is a hole in the view, not a failure of the view.
//
// Build knob: TELEMETRY_SMOKE_RACE=1 builds the server with -race.
package main

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"selfheal/client"
	"selfheal/scripts/internal/harness"
)

const httpDeadline = 60 * time.Second

type node struct {
	*harness.Server
	id      string
	addr    string // http listen addr
	repl    string // repl listen addr
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

// Minimal views of the wire bodies this smoke reads; decoupled from
// the serve types on purpose, like the other smokes.
type traceView struct {
	TraceID string `json:"trace_id"`
	NodeID  string `json:"node_id"`
	Route   string `json:"route"`
	Status  int    `json:"status"`
}

type tracesBody struct {
	Traces []traceView `json:"traces"`
}

type sloStatus struct {
	SLO string `json:"slo"`
	OK  bool   `json:"ok"`
}

type nodeTelemetry struct {
	NodeID    string `json:"node_id"`
	Error     string `json:"error"`
	Stale     bool   `json:"stale"`
	Telemetry *struct {
		Epoch  uint64                       `json:"epoch"`
		Series map[string][]json.RawMessage `json:"series"`
		SLO    []sloStatus                  `json:"slo"`
	} `json:"telemetry"`
}

type fleetBody struct {
	NodeID     string          `json:"node_id"`
	Nodes      []nodeTelemetry `json:"nodes"`
	StaleNodes int             `json:"stale_nodes"`
}

func fleetOf(base string) fleetBody {
	var fb fleetBody
	if err := json.Unmarshal(harness.MustGet(base+"/v1/fleet/telemetry", http.StatusOK), &fb); err != nil {
		harness.Fatalf("decode fleet telemetry: %v", err)
	}
	return fb
}

// tracesWith returns the node's retained traces carrying traceID.
func tracesWith(base, traceID string) []traceView {
	var tb tracesBody
	if err := json.Unmarshal(harness.MustGet(base+"/debug/traces?limit=200", http.StatusOK), &tb); err != nil {
		harness.Fatalf("decode traces: %v", err)
	}
	var hits []traceView
	for _, tv := range tb.Traces {
		if tv.TraceID == traceID {
			hits = append(hits, tv)
		}
	}
	return hits
}

func main() {
	start := time.Now()
	race := os.Getenv("TELEMETRY_SMOKE_RACE") == "1"

	harness.Client.Timeout = httpDeadline

	tmp, err := os.MkdirTemp("", "telemetry-smoke-")
	if err != nil {
		harness.Fatalf("mkdtemp: %v", err)
	}
	defer os.RemoveAll(tmp)
	bin := harness.Build(tmp, race)

	// Three engine-ticking primaries; "a" semisync into a hot standby.
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

	engineArgs := []string{"-engine", "-epoch", "200ms", "-guard"}
	nodes["a"].start(bin, peers, append([]string{"-repl-listen", nodes["a"].repl, "-repl-mode", "semisync"}, engineArgs...)...)
	nodes["b"].start(bin, peers, append([]string{"-repl-listen", nodes["b"].repl, "-repl-mode", "async"}, engineArgs...)...)
	nodes["c"].start(bin, peers, engineArgs...)
	defer func() {
		for _, n := range nodes {
			n.Kill()
		}
	}()
	for _, id := range []string{"a", "b", "c"} {
		nodes[id].WaitHealthy(15 * time.Second)
	}

	standby := &node{id: "a", addr: harness.FreePort(), dataDir: filepath.Join(tmp, "data-standby")}
	standby.start(bin, peers, "-repl-follow", nodes["a"].repl, "-advertise", "http://"+standby.addr)
	standby.Name = "standby"
	defer standby.Kill()
	standby.WaitHealthy(15 * time.Second)
	fmt.Printf("telemetry-smoke: 3 engine-ticking primaries + standby up (race=%v)\n", race)

	// Chips through the routing client (batch partitions fan out under
	// one client-minted trace id per call).
	peerURLs := map[string]string{"a": nodes["a"].Base, "b": nodes["b"].Base, "c": nodes["c"].Base}
	cl, err := client.NewCluster(peerURLs, 0, client.WithHTTPClient(&http.Client{Timeout: httpDeadline}))
	if err != nil {
		harness.Fatalf("cluster client: %v", err)
	}
	ctx := context.Background()
	const chips = 300
	specs := make([]client.CreateChipRequest, chips)
	ids := make([]string, chips)
	for i := range specs {
		ids[i] = fmt.Sprintf("t%04d", i)
		specs[i] = client.CreateChipRequest{ID: ids[i], Seed: uint64(i + 1), Kind: "monitored"}
	}
	if resp, err := cl.BatchCreateChips(ctx, specs); err != nil || resp.Failed != 0 {
		harness.Fatalf("batch create: err=%v failed=%d", err, resp.Failed)
	}

	// Mutations through forwards, under a hand-minted trace: POST the
	// stress to a node that does NOT own the chip; it answers 307
	// wrong_node, the redirect replays at the owner with the same
	// Traceparent, and both halves land in the two nodes' trace rings
	// under the one id.
	var forwarder, owner, chip string
	for _, id := range ids {
		if o := cl.Owner(id); o != "b" {
			forwarder, owner, chip = "b", o, id
			break
		}
	}
	if chip == "" {
		harness.Fatalf("every chip hashed to node b; ring is broken")
	}
	buf := make([]byte, 8)
	if _, err := rand.Read(buf); err != nil {
		harness.Fatalf("mint trace id: %v", err)
	}
	traceID := hex.EncodeToString(buf)
	req, err := http.NewRequest(http.MethodPost,
		nodes[forwarder].Base+"/v1/chips/"+chip+"/stress",
		strings.NewReader(`{"temp_c":80,"vdd":1.0,"hours":0.5}`))
	if err != nil {
		harness.Fatalf("build stress request: %v", err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Traceparent", "00-"+traceID+"-0-01")
	resp, err := harness.Client.Do(req) // follows the 307, replaying headers
	if err != nil {
		harness.Fatalf("stress via non-owner: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		harness.Fatalf("stress via non-owner: status %d: %s", resp.StatusCode, body)
	}
	if echoed := resp.Header.Get("X-Trace-ID"); echoed != traceID {
		harness.Fatalf("X-Trace-ID echo = %q, want minted id %q", echoed, traceID)
	}

	stitched := 0
	for _, id := range []string{forwarder, owner} {
		hits := tracesWith(nodes[id].Base, traceID)
		if len(hits) == 0 {
			harness.Fatalf("node %s retained no trace with the minted id %s", id, traceID)
		}
		for _, h := range hits {
			if h.NodeID != id {
				harness.Fatalf("node %s retained trace half labelled %q", id, h.NodeID)
			}
		}
		stitched++
	}
	fmt.Printf("telemetry-smoke: trace %s stitched across %d nodes (%s -> %s)\n",
		traceID, stitched, forwarder, owner)

	// Fleet telemetry: from any node, every live peer fresh with
	// per-epoch series, and the margin-recovery SLO green everywhere.
	deadline := time.Now().Add(30 * time.Second)
	var fb fleetBody
	for {
		fb = fleetOf(nodes["a"].Base)
		ready := len(fb.Nodes) == 3 && fb.StaleNodes == 0
		for _, n := range fb.Nodes {
			if n.Telemetry == nil || n.Telemetry.Epoch < 3 ||
				len(n.Telemetry.Series["margin_min_v"]) == 0 {
				ready = false
			}
		}
		if ready {
			break
		}
		if time.Now().After(deadline) {
			raw, _ := json.Marshal(fb)
			harness.Fatalf("fleet telemetry never converged to 3 fresh nodes: %s", raw)
		}
		time.Sleep(200 * time.Millisecond)
	}
	for _, n := range fb.Nodes {
		green := false
		for _, st := range n.Telemetry.SLO {
			if st.SLO == "margin_recovery" && st.OK {
				green = true
			}
		}
		if !green {
			harness.Fatalf("margin-recovery SLO not green on node %s: %+v", n.NodeID, n.Telemetry.SLO)
		}
	}
	fmt.Printf("telemetry-smoke: fleet telemetry fresh on 3 nodes, margin-recovery SLO green\n")

	// The Prometheus federation branch sees every node.
	raw := harness.MustGet(nodes["b"].Base+"/metrics?federate=1", http.StatusOK)
	for _, id := range []string{"a", "b", "c"} {
		want := fmt.Sprintf("telemetry_federate_up{node=%q} 1", id)
		if !strings.Contains(string(raw), want) {
			harness.Fatalf("/metrics?federate=1 missing %q", want)
		}
	}

	// Kill "c": the fleet view must mark it stale with an error while
	// the survivors stay fresh.
	nodes["c"].Kill()
	fb = fleetOf(nodes["a"].Base)
	byID := map[string]nodeTelemetry{}
	for _, n := range fb.Nodes {
		byID[n.NodeID] = n
	}
	if n := byID["c"]; !n.Stale || n.Error == "" {
		harness.Fatalf("killed node c not marked stale-with-error: %+v", n)
	}
	for _, id := range []string{"a", "b"} {
		if byID[id].Stale {
			harness.Fatalf("survivor %s marked stale after c died", id)
		}
	}
	if fb.StaleNodes != 1 {
		harness.Fatalf("stale_nodes = %d after killing c, want 1", fb.StaleNodes)
	}

	fmt.Printf("telemetry-smoke: PASS in %.1fs (race=%v)\n", time.Since(start).Seconds(), race)
}
