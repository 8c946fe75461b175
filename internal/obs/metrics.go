package obs

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
)

// The metrics half of the subsystem: a registry of sampled rows with
// three renderers. A number is declared once, as a Row, by the package
// that owns the counter behind it; the serving binary groups the rows
// and every sink — Prometheus /metrics, the /debug/vars map, the
// shutdown report — is a rendering of the same sample. The registry
// owns no counters and starts no goroutine: rows are read when a sink
// asks.

// Row is one exported number, declared once for every sink.
type Row struct {
	// Name is the Prometheus metric name. It is a counter if and only if
	// it ends in _total (the Prometheus naming rule), a gauge otherwise.
	Name string
	// Key is the short key: the /debug/vars key and the shutdown report's
	// field name.
	Key   string
	Help  string
	Value float64
}

// Type returns the row's Prometheus type, read off its name.
func (r Row) Type() string {
	if strings.HasSuffix(r.Name, "_total") {
		return "counter"
	}
	return "gauge"
}

// Group is one owner's rows as of one sample; Title heads its report
// line.
type Group struct {
	Title string
	Rows  []Row
}

// Registry is the list of row groups a binary exports. It is built at
// start-up, before any sink can ask, and only read afterwards.
type Registry struct {
	groups []func() Group
	names  map[string]bool // every Name and Key registered so far
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{names: make(map[string]bool)}
}

// validName reports whether name is a legal Prometheus metric name.
func validName(name string) bool {
	if name == "" {
		return false
	}
	for i, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_', r == ':':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// Add registers a group: sample returns the owner's rows with their
// current values, the same rows in the same order on every call. Add
// samples once to check the declarations and panics on a malformed name
// or key, or one that an earlier row already uses.
func (r *Registry) Add(title string, sample func() []Row) {
	for _, row := range sample() {
		if !validName(row.Name) || !validName(row.Key) {
			panic(fmt.Sprintf("obs: invalid metric name %q or key %q", row.Name, row.Key))
		}
		// Names and keys share one namespace so neither can shadow the
		// other in a flat sink.
		for _, id := range []string{row.Name, row.Key} {
			if r.names[id] {
				panic(fmt.Sprintf("obs: duplicate metric %q", id))
			}
		}
		r.names[row.Name], r.names[row.Key] = true, true
	}
	r.groups = append(r.groups, func() Group { return Group{title, sample()} })
}

// Sample reads every group once. All three renderers work from a Sample,
// so one sample rendered three ways agrees with itself.
type Sample []Group

// Sample reads every registered group, in registration order.
func (r *Registry) Sample() Sample {
	s := make(Sample, len(r.groups))
	for i, group := range r.groups {
		s[i] = group()
	}
	return s
}

// formatValue prints integers in full (a report field must match
// [0-9]+, never 1e+06) and everything else at shortest precision.
func formatValue(v float64) string {
	return strconv.FormatFloat(v, 'f', -1, 64)
}

// WriteText renders the sample in Prometheus text exposition format
// (version 0.0.4), sorted by metric name.
func (s Sample) WriteText(w io.Writer) error {
	var rows []Row
	for _, g := range s {
		rows = append(rows, g.Rows...)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Name < rows[j].Name })
	for _, r := range rows {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n%s %s\n",
			r.Name, r.Help, r.Name, r.Type(), r.Name, formatValue(r.Value)); err != nil {
			return err
		}
	}
	return nil
}

// Vars renders the sample as one flat map, every row under its short
// key — the value an expvar.Func publishes at /debug/vars.
func (s Sample) Vars() map[string]float64 {
	m := make(map[string]float64)
	for _, g := range s {
		for _, r := range g.Rows {
			m[r.Key] = r.Value
		}
	}
	return m
}

// Report renders the sample as one "title: key=value key=value ..." line
// per group, rows in declaration order.
func (s Sample) Report() []string {
	lines := make([]string, len(s))
	for i, g := range s {
		var b strings.Builder
		b.WriteString(g.Title)
		b.WriteByte(':')
		for _, r := range g.Rows {
			b.WriteString(" " + r.Key + "=" + formatValue(r.Value))
		}
		lines[i] = b.String()
	}
	return lines
}

// Handler serves a fresh sample in Prometheus text exposition format —
// mount it at /metrics.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.Sample().WriteText(w) // a failed write is the scraper hanging up
	})
}

// Vars samples and renders the /debug/vars map; its signature is
// expvar.Func's.
func (r *Registry) Vars() any { return r.Sample().Vars() }
