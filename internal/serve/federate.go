package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"

	"selfheal/internal/obs"
	"selfheal/internal/obs/tsdb"
)

// Metrics federation: any node answers for the whole fleet by scraping
// its ring peers' /v1/telemetry concurrently. The answering node
// serves its own section locally (never HTTP-to-self, which would
// deadlock under the load shedder), labels every peer section with its
// node id, and marks peers it could not reach — or whose newest sample
// is old — as stale instead of failing the whole response: a killed
// node must show up as a hole in the fleet view, not take the view
// down with it.

const (
	// federateTimeout bounds each peer scrape a federated request fans
	// out.
	federateTimeout = 2 * time.Second
	// federateStaleAfter is how old a peer's newest sample may be before
	// the federated view marks the node stale.
	federateStaleAfter = 15 * time.Second
)

// NodeTelemetry is one node's section of a fleet response.
type NodeTelemetry struct {
	NodeID string `json:"node_id"`
	Addr   string `json:"addr,omitempty"`
	Self   bool   `json:"self,omitempty"`
	// Error is the scrape failure, if any; Stale is set for both
	// scrape failures and nodes whose newest sample is older than the
	// staleness bound (AgeSeconds reports how old).
	Error      string             `json:"error,omitempty"`
	Stale      bool               `json:"stale"`
	AgeSeconds float64            `json:"age_seconds,omitempty"`
	Telemetry  *TelemetryResponse `json:"telemetry,omitempty"`
}

// FleetTelemetryResponse is the GET /v1/fleet/telemetry body.
type FleetTelemetryResponse struct {
	// NodeID is the node that answered (and did the scraping).
	NodeID     string          `json:"node_id"`
	Nodes      []NodeTelemetry `json:"nodes"`
	StaleNodes int             `json:"stale_nodes"`
}

// gatherFleet scrapes every ring peer concurrently. Outside cluster
// mode the "fleet" is this node alone. rawQuery is passed through to
// the peers so filtering/downsampling federates too.
func (s *Server) gatherFleet(ctx context.Context, names []string, query tsdb.Query, rawQuery string) FleetTelemetryResponse {
	resp := FleetTelemetryResponse{NodeID: s.nodeID()}
	self := NodeTelemetry{NodeID: s.nodeID(), Self: true}
	local := s.localTelemetry(names, query)
	self.Telemetry = &local
	if s.cluster == nil {
		resp.Nodes = []NodeTelemetry{s.markStale(self)}
		resp.StaleNodes = countStale(resp.Nodes)
		return resp
	}

	peers := s.cluster.peerList()
	nodes := make([]NodeTelemetry, len(peers))
	var wg sync.WaitGroup
	for i, peer := range peers {
		if peer.Self {
			self.Addr = peer.Addr
			nodes[i] = s.markStale(self)
			continue
		}
		wg.Add(1)
		go func(i int, id, addr string) {
			defer wg.Done()
			nodes[i] = s.markStale(s.scrapePeer(ctx, id, addr, rawQuery))
		}(i, peer.ID, peer.Addr)
	}
	wg.Wait()
	resp.Nodes = nodes
	resp.StaleNodes = countStale(nodes)
	return resp
}

// scrapePeer fetches one peer's /v1/telemetry, propagating the
// caller's trace context so the fan-out shows up as one distributed
// trace across every node's ring.
func (s *Server) scrapePeer(ctx context.Context, id, addr, rawQuery string) NodeTelemetry {
	nt := NodeTelemetry{NodeID: id, Addr: addr}
	ctx, cancel := context.WithTimeout(ctx, federateTimeout)
	defer cancel()
	url := addr + "/v1/telemetry"
	if rawQuery != "" {
		url += "?" + rawQuery
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		nt.Error = err.Error()
		return nt
	}
	if tp := obs.TraceContextValue(ctx); tp != "" {
		req.Header.Set(obs.TraceContextHeader, tp)
	}
	if rid := RequestIDFrom(ctx); rid != "" {
		req.Header.Set("X-Request-ID", rid)
	}
	res, err := http.DefaultClient.Do(req)
	if err != nil {
		nt.Error = err.Error()
		return nt
	}
	defer res.Body.Close()
	body, err := io.ReadAll(io.LimitReader(res.Body, 8<<20))
	if err != nil {
		nt.Error = err.Error()
		return nt
	}
	if res.StatusCode != http.StatusOK {
		nt.Error = fmt.Sprintf("peer answered %d", res.StatusCode)
		return nt
	}
	var tr TelemetryResponse
	if err := json.Unmarshal(body, &tr); err != nil {
		nt.Error = "decode: " + err.Error()
		return nt
	}
	nt.Telemetry = &tr
	return nt
}

// markStale applies the staleness rule to one section: unreachable, no
// samples at all, or newest sample older than federateStaleAfter.
func (s *Server) markStale(nt NodeTelemetry) NodeTelemetry {
	if nt.Error != "" || nt.Telemetry == nil {
		nt.Stale = true
		return nt
	}
	if nt.Telemetry.LastUnix == 0 {
		// Serving but recording nothing (engine disabled, just booted):
		// no fresh aging samples to offer — stale, without an error.
		nt.Stale = true
		return nt
	}
	nt.AgeSeconds = time.Since(time.Unix(nt.Telemetry.LastUnix, 0)).Seconds()
	if nt.AgeSeconds < 0 {
		nt.AgeSeconds = 0
	}
	nt.Stale = nt.AgeSeconds > federateStaleAfter.Seconds()
	return nt
}

func countStale(nodes []NodeTelemetry) int {
	n := 0
	for i := range nodes {
		if nodes[i].Stale {
			n++
		}
	}
	return n
}

// handleFleetTelemetry is GET /v1/fleet/telemetry: the federated view.
// Accepts the same query parameters as /v1/telemetry; they federate to
// every peer.
func (s *Server) handleFleetTelemetry(w http.ResponseWriter, r *http.Request) {
	names, query, errMsg := parseTelemetryQuery(r.URL.Query())
	if errMsg != "" {
		s.writeJSON(w, http.StatusBadRequest, ErrorResponse{
			Error: errMsg, RequestID: RequestIDFrom(r.Context())})
		return
	}
	s.writeJSON(w, http.StatusOK, s.gatherFleet(r.Context(), names, query, r.URL.RawQuery))
}

// writePromFederated renders the fleet view as a Prometheus exposition
// (the /metrics?federate=1 branch): per-node scrape health plus the
// newest value of every telemetry series, labelled by node. Only the
// latest sample per series is emitted — Prometheus wants instantaneous
// values and builds its own history; /v1/fleet/telemetry carries the
// per-epoch windows.
func writePromFederated(buf *bytes.Buffer, fleet FleetTelemetryResponse) {
	p := obs.NewPromWriter(buf)
	p.Header("telemetry_federate_up", "1 when the node's telemetry was scraped successfully.", "gauge")
	for _, nt := range fleet.Nodes {
		up := 1.0
		if nt.Error != "" || nt.Telemetry == nil {
			up = 0
		}
		p.Sample("telemetry_federate_up", []obs.Label{{Name: "node", Value: nt.NodeID}}, up)
	}
	p.Header("telemetry_federate_stale", "1 when the node's newest sample is missing or too old.", "gauge")
	for _, nt := range fleet.Nodes {
		stale := 0.0
		if nt.Stale {
			stale = 1
		}
		p.Sample("telemetry_federate_stale", []obs.Label{{Name: "node", Value: nt.NodeID}}, stale)
	}
	// Each family's samples follow its own header: the text format
	// allows one contiguous group per family.
	p.Header("telemetry_last_sample_age_seconds", "Age of the node's newest telemetry sample.", "gauge")
	for _, nt := range fleet.Nodes {
		if nt.Telemetry != nil {
			p.Sample("telemetry_last_sample_age_seconds", []obs.Label{{Name: "node", Value: nt.NodeID}}, nt.AgeSeconds)
		}
	}
	p.Header("telemetry_last_epoch", "The node's newest recorded epoch.", "gauge")
	for _, nt := range fleet.Nodes {
		if nt.Telemetry != nil {
			p.Sample("telemetry_last_epoch", []obs.Label{{Name: "node", Value: nt.NodeID}}, float64(nt.Telemetry.Epoch))
		}
	}

	// One gauge per series name, node-labelled, newest value. Series
	// names are already metric-safe ([a-z0-9_]); collect the union so
	// each name gets exactly one HELP/TYPE header.
	union := map[string]bool{}
	for _, nt := range fleet.Nodes {
		if nt.Telemetry == nil {
			continue
		}
		for name := range nt.Telemetry.Series {
			union[name] = true
		}
	}
	names := make([]string, 0, len(union))
	for name := range union {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		metric := "telemetry_" + name
		p.Header(metric, "Newest per-epoch telemetry sample, federated per node.", "gauge")
		for _, nt := range fleet.Nodes {
			if nt.Telemetry == nil {
				continue
			}
			samples := nt.Telemetry.Series[name]
			if len(samples) == 0 {
				continue
			}
			p.Sample(metric, []obs.Label{{Name: "node", Value: nt.NodeID}}, samples[len(samples)-1].Value)
		}
	}
}
