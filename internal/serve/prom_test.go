package serve

import (
	"bytes"
	"os"
	"sort"
	"strings"
	"testing"

	"selfheal/internal/engine"
	"selfheal/internal/guard"
	"selfheal/internal/obs"
	"selfheal/internal/obs/tsdb"
	"selfheal/internal/repl"
)

// fixtureHist builds a histogram snapshot from cumulative counts over
// the bounds' "le" labels and +Inf.
func fixtureHist(bounds []float64, sum float64, cum ...uint64) obs.HistogramSnapshot {
	h := obs.NewHistogram(bounds...).Snapshot()
	for i := range h.Buckets {
		h.Buckets[i].Count = cum[i]
	}
	h.Count, h.SumSeconds = cum[len(cum)-1], sum
	return h
}

// fullSnapshot is a MetricsSnapshot with every section present and
// every family holding at least one sample.
func fullSnapshot() MetricsSnapshot {
	pct, ppm := 2.153, 512.5
	return MetricsSnapshot{
		UptimeSeconds: 1234.5,
		Requests: map[string]RouteSnapshot{
			"POST /v1/ops:batch": {Count: 7, ByStatus: map[string]uint64{"200": 6, "503": 1}},
			"GET /v1/chips/{id}": {Count: 3, ByStatus: map[string]uint64{"200": 2, "404": 1}},
		},
		LatencySeconds: fixtureHist(latencyBounds, 0.217, 1, 4, 7, 9, 10, 10, 10, 10).Buckets,
		LatencyByRoute: map[string]obs.HistogramSnapshot{
			"POST /v1/ops:batch": fixtureHist(latencyBounds, 0.2125, 0, 1, 4, 6, 7, 7, 7, 7),
			"GET /v1/chips/{id}": fixtureHist(latencyBounds, 0.0045, 1, 3, 3, 3, 3, 3, 3, 3),
		},
		Cache: CacheSnapshot{Hits: 5, Misses: 2, Entries: 2, Capacity: 128},
		Chips: map[string]ChipUsage{
			"c0": {Kind: "bench", StressSeconds: 86400, HealSeconds: 21600, Ops: 3, LastDelayNS: 12.5, LastDegradationPct: &pct},
			"m0": {Kind: "monitored", StressSeconds: 3600, Ops: 2, LastBeatHz: 1234.5, LastDegradationPPM: &ppm},
		},
		PanicsRecovered: 1,
		RequestsShed:    2,
		RequestTimeouts: 3,
		Journal: &JournalSnapshot{Appends: 10, Compactions: 1, Records: 8, LastSeq: 10, FsyncCount: 9,
			FsyncMeanMS: 1.5, FsyncMaxMS: 4.25, SyncBatches: 2, SyncBatchMax: 3},
		Degraded: &DegradedSnapshot{WriteReady: true, Enters: 1, Exits: 1, Probes: 4, WritesRejected: 2},
		Engine: &EngineMetrics{
			Stats: engine.Stats{Epoch: 42, SimHours: 21, Chips: 3, EpochLagSeconds: 0.01, ChipsPerSecond: 1e6,
				LastTickSeconds: 0.002, TicksTotal: 42, EventsApplied: 5, PendingEpochs: 2, CommitErrors: 1},
			OdometerSum: 100,
			VthShiftSum: 0.125,
			Top:         []engine.ChipView{{ID: "e1", VthShift: 0.0625, Odometer: 40}, {ID: "e0", VthShift: 0.03125, Odometer: 30}},
		},
		Guard: &GuardMetrics{
			Metrics: guard.Metrics{AlertsTotal: 4, QuarantinedChips: 1, RemapsTotal: 1, RejuvenationEpochsTotal: 16,
				ReleasesTotal: 1, Recovered90Total: 1, SpareFreeCells: 60},
			Quarantined: []string{"e1"},
		},
		Cluster: &ClusterMetrics{NodeID: "a", Peers: 3, Forwards: 2, WrongNode: 1,
			Repl: &repl.Stats{Role: "primary", Mode: "semisync", Followers: 1, Connected: true, LastSeq: 10,
				AckedSeq: 9, LagRecords: 1, FramesSent: 11, RecordsSent: 10, AcksReceived: 9, AckTimeouts: 1,
				Refused: 2, Snapshots: 1, Connects: 1,
				AckWait: func() *obs.HistogramSnapshot {
					h := fixtureHist([]float64{0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.5},
						0.0123, 2, 5, 7, 8, 8, 8, 9, 9, 9, 9)
					return &h
				}()}},
		Telemetry: &TelemetryMetrics{Series: 20, Capacity: 512, Rejected: 3, LastEpoch: 42,
			SLO: []SLOStatus{
				{SLO: SLOMutationAvailability, OK: true, Burn: 0.25, Epoch: 42, Window: 64},
				{SLO: SLOMarginRecovery, OK: false, Burn: 1.5, Epoch: 42, Window: 64},
			},
			SLOAlertsTotal: 2, SLOBreaches: 1},
	}
}

// twoNodeFleet is a federated view of two fresh nodes holding the same
// two telemetry series.
func twoNodeFleet() FleetTelemetryResponse {
	tel := func(node string, epoch uint64, v float64) *TelemetryResponse {
		return &TelemetryResponse{NodeID: node, Epoch: epoch, Capacity: 512, Series: map[string][]tsdb.Sample{
			"margin_min_v":      {{Epoch: epoch, Value: v}},
			"guard_quarantined": {{Epoch: epoch, Value: 1}},
		}}
	}
	return FleetTelemetryResponse{NodeID: "a", Nodes: []NodeTelemetry{
		{NodeID: "a", Self: true, AgeSeconds: 0.5, Telemetry: tel("a", 42, -0.0625)},
		{NodeID: "b", AgeSeconds: 1.5, Telemetry: tel("b", 41, -0.03125)},
	}}
}

// TestPromExpositionGolden pins writeProm's output for fullSnapshot to
// testdata/metrics.prom, minus the live go_* runtime block.
func TestPromExpositionGolden(t *testing.T) {
	var buf bytes.Buffer
	writeProm(&buf, fullSnapshot(), 50)
	got := buf.String()
	checkPromExposition(t, got)
	got = got[:strings.Index(got, "# HELP go_goroutines")]
	want, err := os.ReadFile("testdata/metrics.prom")
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("line %d:\n got %s\nwant %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("got %d lines, want %d", len(gl), len(wl))
	}
}

// family is one metric family as the exposition emits it or the README
// documents it: its type and sorted label names ("le" excluded).
type family struct {
	typ    string
	labels string
}

// emittedFamilies collects each family in a Prometheus text body.
func emittedFamilies(t *testing.T, text string) map[string]family {
	t.Helper()
	out := map[string]family{}
	seen := map[string]bool{}
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			f := strings.Fields(line)
			out[f[2]] = family{typ: f[3]}
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		name, labels := line, ""
		if open := strings.IndexByte(line, '{'); open >= 0 {
			name, labels = line[:open], line[open+1:strings.LastIndexByte(line, '}')]
		} else {
			name, _, _ = strings.Cut(line, " ")
		}
		fam := name
		if _, ok := out[fam]; !ok {
			fam = strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(name, "_bucket"), "_sum"), "_count")
		}
		f := out[fam]
		var names []string
		for _, n := range labelNames(t, labels) {
			if n != "le" {
				names = append(names, n)
			}
		}
		sort.Strings(names)
		if got := strings.Join(names, ","); seen[fam] && got != f.labels {
			t.Errorf("%s: label sets %q and %q in one family", fam, f.labels, got)
		}
		f.labels = strings.Join(names, ",")
		out[fam] = f
		seen[fam] = true
	}
	for name := range out {
		if !seen[name] {
			t.Errorf("fixture leaves family %s without a sample", name)
		}
	}
	return out
}

// labelNames parses the names of a `k="v",...` label list; values may
// hold commas, braces and escaped quotes.
func labelNames(t *testing.T, s string) []string {
	t.Helper()
	var names []string
	for s != "" {
		eq := strings.Index(s, `="`)
		if eq < 0 {
			t.Fatalf("malformed label list %q", s)
		}
		names = append(names, s[:eq])
		i := eq + 2
		for ; i < len(s) && s[i] != '"'; i++ {
			if s[i] == '\\' {
				i++
			}
		}
		s = strings.TrimPrefix(s[i+1:], ",")
	}
	return names
}

// readmeFamilies parses the README's Prometheus reference: two tables,
// the plain scrape's and then the federated scrape's, each row naming
// one family as `name{label,...}` with its type.
func readmeFamilies(t *testing.T) (plain, federated map[string]family) {
	t.Helper()
	raw, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(raw), "### Prometheus metrics reference\n")
	if !ok {
		t.Fatal("README has no Prometheus metrics reference")
	}
	if end := strings.Index(section, "\n#"); end >= 0 {
		section = section[:end]
	}
	var tables []map[string]family
	inTable := false
	for _, line := range strings.Split(section, "\n") {
		if !strings.HasPrefix(line, "|") {
			inTable = false
			continue
		}
		if !inTable {
			tables = append(tables, map[string]family{})
			inTable = true
		}
		cells := strings.Split(line, "|")
		first := strings.TrimSpace(cells[1])
		if !strings.HasPrefix(first, "`") {
			continue // header and separator rows
		}
		name, labels, _ := strings.Cut(strings.Trim(first, "`"), "{")
		names := strings.Split(strings.TrimSuffix(labels, "}"), ",")
		if labels == "" {
			names = nil
		}
		sort.Strings(names)
		cur := tables[len(tables)-1]
		if _, dup := cur[name]; dup {
			t.Errorf("README lists %s twice in one table", name)
		}
		cur[name] = family{typ: strings.TrimSpace(cells[2]), labels: strings.Join(names, ",")}
	}
	if len(tables) != 2 {
		t.Fatalf("README Prometheus reference has %d tables, want 2 (plain, federated)", len(tables))
	}
	return tables[0], tables[1]
}

// TestPromReferenceMatchesREADME holds the README's metric reference to
// what writeProm and writePromFederated emit, family by family, in both
// directions: name, type and label names.
func TestPromReferenceMatchesREADME(t *testing.T) {
	var buf bytes.Buffer
	writeProm(&buf, fullSnapshot(), 50)
	plain := emittedFamilies(t, buf.String())

	buf.Reset()
	fleet := twoNodeFleet()
	writePromFederated(&buf, fleet)
	federated := map[string]family{}
	for name, f := range emittedFamilies(t, buf.String()) {
		// One README row stands for every telemetry series.
		if _, ok := fleet.Nodes[0].Telemetry.Series[strings.TrimPrefix(name, "telemetry_")]; ok {
			name = "telemetry_<series>"
		}
		federated[name] = f
	}

	docPlain, docFederated := readmeFamilies(t)
	for _, c := range []struct {
		scrape   string
		got, doc map[string]family
	}{{"plain", plain, docPlain}, {"federated", federated, docFederated}} {
		for name, f := range c.got {
			d, ok := c.doc[name]
			switch {
			case !ok:
				t.Errorf("%s scrape emits %s (%s{%s}), README does not list it", c.scrape, name, f.typ, f.labels)
			case d != f:
				t.Errorf("%s scrape: %s is %s{%s}, README says %s{%s}", c.scrape, name, f.typ, f.labels, d.typ, d.labels)
			}
		}
		for name := range c.doc {
			if _, ok := c.got[name]; !ok {
				t.Errorf("README lists %s under the %s scrape, which does not emit it", name, c.scrape)
			}
		}
	}
}
