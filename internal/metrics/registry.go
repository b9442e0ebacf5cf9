package metrics

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Instrument type strings, as they appear on Prometheus # TYPE lines.
const (
	typeCounter   = "counter"
	typeGauge     = "gauge"
	typeHistogram = "histogram"
)

// Counter is a monotonically increasing counter. The zero value is ready
// to use; counters obtained from a Registry additionally render themselves
// on the /metrics exposition.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n. Counters are monotonic: callers must
// pass n >= 0.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Load returns the counter's current value.
func (c *Counter) Load() int64 { return c.v.Load() }

// Sample is one rendered metric sample of a callback-backed family:
// alternating label name/value pairs plus the value at collection time.
type Sample struct {
	// Labels holds alternating label name, label value pairs.
	Labels []string
	// Value is the sample's value.
	Value float64
}

// series is one labeled member of a family. Exactly one of the four
// sources is set.
type series struct {
	labels  []string // alternating name, value
	counter *Counter
	hist    *Histogram
	gauge   func() float64  // single gauge callback
	samples func() []Sample // dynamic multi-sample callback
}

// family groups every series registered under one metric name: one # HELP
// and # TYPE line, then each series' samples.
type family struct {
	name, help, typ string
	series          []*series
}

// Registry is a set of self-registering instruments renderable in the
// Prometheus text exposition format. Instruments registered under the same
// name with identical help and type but different labels join one family
// (the stage-latency histograms, the per-kind degradation counters);
// re-registering a name with a different type or help is a programming
// error and panics. A Registry is safe for concurrent registration,
// observation and rendering.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// Counter registers and returns a counter. labels are alternating label
// name, label value pairs.
func (r *Registry) Counter(name, help string, labels ...string) *Counter {
	c := &Counter{}
	r.register(name, help, typeCounter, &series{labels: labels, counter: c})
	return c
}

// CounterFunc registers a callback-backed counter family: fn is invoked at
// render time and every returned sample is emitted under name. It is the
// shape for counters owned elsewhere (a backing store's lifetime totals)
// that the registry can read but not own.
func (r *Registry) CounterFunc(name, help string, fn func() []Sample) {
	r.register(name, help, typeCounter, &series{samples: fn})
}

// Gauge registers a single-sample gauge whose value is read at render time.
func (r *Registry) Gauge(name, help string, fn func() float64, labels ...string) {
	r.register(name, help, typeGauge, &series{labels: labels, gauge: fn})
}

// GaugeFunc registers a callback-backed gauge family: fn is invoked at
// render time and every returned sample is emitted under name — the shape
// for dynamic label sets like per-shard index balance.
func (r *Registry) GaugeFunc(name, help string, fn func() []Sample) {
	r.register(name, help, typeGauge, &series{samples: fn})
}

// Histogram registers and returns a latency histogram. Its buckets render
// as a Prometheus _bucket/_sum/_count family with le bounds in seconds.
func (r *Registry) Histogram(name, help string, labels ...string) *Histogram {
	h := &Histogram{}
	r.register(name, help, typeHistogram, &series{labels: labels, hist: h})
	return h
}

func (r *Registry) register(name, help, typ string, s *series) {
	if !validName(name) {
		panic(fmt.Sprintf("metrics: invalid metric name %q", name))
	}
	if len(s.labels)%2 != 0 {
		panic(fmt.Sprintf("metrics: %s: labels must be name/value pairs, got %d strings", name, len(s.labels)))
	}
	for i := 0; i < len(s.labels); i += 2 {
		if !validLabel(s.labels[i]) {
			panic(fmt.Sprintf("metrics: %s: invalid label name %q", name, s.labels[i]))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f == nil {
		f = &family{name: name, help: help, typ: typ}
		r.families[name] = f
	} else if f.typ != typ || f.help != help {
		panic(fmt.Sprintf("metrics: %s re-registered as %s (%q), was %s (%q)", name, typ, help, f.typ, f.help))
	}
	f.series = append(f.series, s)
}

// validName reports whether name is a legal Prometheus metric name:
// [a-zA-Z_:][a-zA-Z0-9_:]*.
func validName(name string) bool {
	if name == "" {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}

// validLabel reports whether name is a legal label name:
// [a-zA-Z_][a-zA-Z0-9_]*.
func validLabel(name string) bool {
	if name == "" {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		ok := c == '_' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}

// WritePrometheus renders every registered family in the text exposition
// format (version 0.0.4): families sorted by name, each with its # HELP
// and # TYPE line followed by its samples; histograms expand into
// cumulative _bucket series (le in seconds), _sum and _count.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })

	var b strings.Builder
	for _, f := range fams {
		fmt.Fprintf(&b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.typ)
		for _, s := range f.series {
			switch {
			case s.counter != nil:
				writeLine(&b, f.name, s.labels, strconv.FormatInt(s.counter.Load(), 10))
			case s.gauge != nil:
				writeLine(&b, f.name, s.labels, formatFloat(s.gauge()))
			case s.samples != nil:
				for _, smp := range s.samples() {
					writeLine(&b, f.name, smp.Labels, formatFloat(smp.Value))
				}
			case s.hist != nil:
				writeHistogram(&b, f.name, s.labels, s.hist)
			}
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// writeHistogram expands one histogram series into its cumulative buckets,
// sum and count. The +Inf bucket and _count are both the cumulative total
// read from the buckets, so the two can never disagree mid-scrape even
// while observations land concurrently.
func writeHistogram(b *strings.Builder, name string, labels []string, h *Histogram) {
	cum := int64(0)
	for i := range h.counts {
		cum += h.counts[i].Load()
		le := formatFloat(bucketBounds[i].Seconds())
		writeLine(b, name+"_bucket", append(append([]string{}, labels...), "le", le),
			strconv.FormatInt(cum, 10))
	}
	cum += h.overflow.Load()
	writeLine(b, name+"_bucket", append(append([]string{}, labels...), "le", "+Inf"),
		strconv.FormatInt(cum, 10))
	writeLine(b, name+"_sum", labels, formatFloat(float64(h.sumNanos.Load())/1e9))
	writeLine(b, name+"_count", labels, strconv.FormatInt(cum, 10))
}

// writeLine emits one sample: name{labels} value.
func writeLine(b *strings.Builder, name string, labels []string, value string) {
	b.WriteString(name)
	if len(labels) > 0 {
		b.WriteByte('{')
		for i := 0; i+1 < len(labels); i += 2 {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(labels[i])
			b.WriteString(`="`)
			b.WriteString(escapeLabel(labels[i+1]))
			b.WriteByte('"')
		}
		b.WriteByte('}')
	}
	b.WriteByte(' ')
	b.WriteString(value)
	b.WriteByte('\n')
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

var helpEscaper = strings.NewReplacer(`\`, `\\`, "\n", `\n`)
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

func escapeHelp(s string) string  { return helpEscaper.Replace(s) }
func escapeLabel(s string) string { return labelEscaper.Replace(s) }
