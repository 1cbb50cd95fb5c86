package obs

import (
	"io"
	"math"
	"runtime"
	"strconv"
	"strings"
)

// Label is one Prometheus label pair.
type Label struct{ Name, Value string }

// PromWriter renders the Prometheus text exposition format (version
// 0.0.4): `# HELP` / `# TYPE` headers followed by samples. Errors are
// sticky — callers write the whole family and check Err once, the
// bytes.Buffer-backed callers never see one.
type PromWriter struct {
	w   io.Writer
	err error
}

// NewPromWriter wraps w.
func NewPromWriter(w io.Writer) *PromWriter { return &PromWriter{w: w} }

// Err reports the first write error, if any.
func (p *PromWriter) Err() error { return p.err }

func (p *PromWriter) writeString(s string) {
	if p.err == nil {
		_, p.err = io.WriteString(p.w, s)
	}
}

// Header emits the HELP and TYPE comment lines for one metric family.
// typ is "counter", "gauge" or "histogram".
func (p *PromWriter) Header(name, help, typ string) {
	p.writeString("# HELP " + name + " " + escapeHelp(help) + "\n# TYPE " + name + " " + typ + "\n")
}

// Sample emits one sample line: name{labels} value.
func (p *PromWriter) Sample(name string, labels []Label, v float64) {
	var sb strings.Builder
	sb.WriteString(name)
	if len(labels) > 0 {
		sb.WriteByte('{')
		for i, l := range labels {
			if i > 0 {
				sb.WriteByte(',')
			}
			sb.WriteString(l.Name)
			sb.WriteString(`="`)
			sb.WriteString(escapeLabelValue(l.Value))
			sb.WriteByte('"')
		}
		sb.WriteByte('}')
	}
	sb.WriteByte(' ')
	sb.WriteString(FormatPromValue(v))
	sb.WriteByte('\n')
	p.writeString(sb.String())
}

// Histogram emits one series of a histogram family: a _bucket sample
// per bucket, with le as the last label, then _sum and _count.
func (p *PromWriter) Histogram(name string, labels []Label, h HistogramSnapshot) {
	le := append(labels[:len(labels):len(labels)], Label{Name: "le"})
	for _, b := range h.Buckets {
		le[len(labels)].Value = b.LE
		p.Sample(name+"_bucket", le, float64(b.Count))
	}
	p.Sample(name+"_sum", labels, h.SumSeconds)
	p.Sample(name+"_count", labels, float64(h.Count))
}

// FormatPromValue renders a float the way the exposition format wants:
// "+Inf"/"-Inf"/"NaN" specials, shortest round-trip decimal otherwise.
func FormatPromValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// escapeLabelValue escapes a label value per the exposition format:
// backslash, double quote and newline.
func escapeLabelValue(s string) string {
	if !strings.ContainsAny(s, "\\\"\n") {
		return s
	}
	var sb strings.Builder
	for _, r := range s {
		switch r {
		case '\\':
			sb.WriteString(`\\`)
		case '"':
			sb.WriteString(`\"`)
		case '\n':
			sb.WriteString(`\n`)
		default:
			sb.WriteRune(r)
		}
	}
	return sb.String()
}

// escapeHelp escapes a HELP string: backslash and newline only (quotes
// are legal there).
func escapeHelp(s string) string {
	if !strings.ContainsAny(s, "\\\n") {
		return s
	}
	var sb strings.Builder
	for _, r := range s {
		switch r {
		case '\\':
			sb.WriteString(`\\`)
		case '\n':
			sb.WriteString(`\n`)
		default:
			sb.WriteRune(r)
		}
	}
	return sb.String()
}

// WriteRuntimeMetrics emits the Go runtime gauges a production scrape
// wants: goroutine count, heap residency, allocation volume and GC
// pause totals. One runtime.ReadMemStats per scrape is the accepted
// cost of a /metrics hit.
func WriteRuntimeMetrics(p *PromWriter) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)

	p.Header("go_goroutines", "Number of goroutines that currently exist.", "gauge")
	p.Sample("go_goroutines", nil, float64(runtime.NumGoroutine()))

	p.Header("go_memstats_heap_alloc_bytes", "Bytes of allocated heap objects.", "gauge")
	p.Sample("go_memstats_heap_alloc_bytes", nil, float64(ms.HeapAlloc))

	p.Header("go_memstats_heap_objects", "Number of allocated heap objects.", "gauge")
	p.Sample("go_memstats_heap_objects", nil, float64(ms.HeapObjects))

	p.Header("go_memstats_alloc_bytes_total", "Cumulative bytes allocated for heap objects.", "counter")
	p.Sample("go_memstats_alloc_bytes_total", nil, float64(ms.TotalAlloc))

	p.Header("go_gc_cycles_total", "Number of completed GC cycles.", "counter")
	p.Sample("go_gc_cycles_total", nil, float64(ms.NumGC))

	p.Header("go_gc_pause_seconds_total", "Cumulative GC stop-the-world pause time.", "counter")
	p.Sample("go_gc_pause_seconds_total", nil, float64(ms.PauseTotalNs)/1e9)
}
