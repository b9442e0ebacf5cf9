package metrics

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
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
// Prometheus text exposition format and as JSON. Instruments registered
// under the same name with identical help and type but different labels
// join one family (the stage-latency histograms, the per-kind degradation
// counters); re-registering a name with a different type or help is a
// programming error and panics. A Registry is safe for concurrent
// registration, observation and rendering.
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
	if !validName(name, true) {
		panic(fmt.Sprintf("metrics: invalid metric name %q", name))
	}
	if len(s.labels)%2 != 0 {
		panic(fmt.Sprintf("metrics: %s: labels must be name/value pairs, got %d strings", name, len(s.labels)))
	}
	for i := 0; i < len(s.labels); i += 2 {
		if !validName(s.labels[i], false) {
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

// validName reports whether name is a legal Prometheus metric name,
// [a-zA-Z_:][a-zA-Z0-9_:]*, or, without colons, a legal label name,
// [a-zA-Z_][a-zA-Z0-9_]*.
func validName(name string, colons bool) bool {
	for i := 0; i < len(name); i++ {
		c := name[i]
		ok := c == '_' || (colons && c == ':') ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return name != ""
}

// point is one sample of a family as the walk reads it: labels plus a
// value, or, for a histogram series, its buckets, sum and count.
type point struct {
	labels []string
	value  float64
	hist   *histogramRead
}

// walk reads every registered family once, in name order, and hands visit
// the family with its samples: each counter, gauge and callback sample as
// labels plus a value, each histogram as its cumulative buckets, sum and
// count. It is the one place that tells the series kinds apart;
// WritePrometheus and WriteJSON only format what it hands them.
func (r *Registry) walk(visit func(f family, points []point)) {
	r.mu.Lock()
	fams := make([]family, 0, len(r.families))
	for _, f := range r.families {
		// A copy of the slice header: a later registration appends past its
		// length or reallocates, never rewriting the elements read below.
		fams = append(fams, *f)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })

	for _, f := range fams {
		var points []point
		for _, s := range f.series {
			switch {
			case s.counter != nil:
				points = append(points, point{labels: s.labels, value: float64(s.counter.Load())})
			case s.gauge != nil:
				points = append(points, point{labels: s.labels, value: s.gauge()})
			case s.samples != nil:
				for _, smp := range s.samples() {
					points = append(points, point{labels: smp.Labels, value: smp.Value})
				}
			case s.hist != nil:
				points = append(points, point{labels: s.labels, hist: s.hist.read()})
			}
		}
		visit(f, points)
	}
}

// WritePrometheus renders every registered family in the text exposition
// format (version 0.0.4): families sorted by name, each with its # HELP
// and # TYPE line followed by its samples; histograms expand into
// cumulative _bucket series (le in seconds), _sum and _count.
func (r *Registry) WritePrometheus(w io.Writer) error {
	var b strings.Builder
	r.walk(func(f family, points []point) {
		fmt.Fprintf(&b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.typ)
		for _, p := range points {
			if p.hist == nil {
				writeLine(&b, f.name, p.labels, formatValue(p.value))
				continue
			}
			for i, c := range p.hist.cumulative {
				labels := append(append([]string{}, p.labels...), "le", bucketLe(i))
				writeLine(&b, f.name+"_bucket", labels, strconv.FormatInt(c, 10))
			}
			writeLine(&b, f.name+"_sum", p.labels, formatValue(p.hist.sum))
			writeLine(&b, f.name+"_count", p.labels, strconv.FormatInt(p.hist.count(), 10))
		}
	})
	_, err := io.WriteString(w, b.String())
	return err
}

// WriteJSON renders every registered family as one JSON object keyed by
// family name. Each value lists the family's samples: {"labels":{…},
// "value":N}, or for a histogram {"labels":{…},"count":N,"sum":seconds,
// "buckets":[{"le":"1e-06","count":N},…,{"le":"+Inf","count":N}]} with
// cumulative counts and le spelled as on /metrics. labels is omitted when
// empty; a family whose callback yields nothing is []. A NaN or ±Inf value
// renders as null, since JSON has no spelling for it.
func (r *Registry) WriteJSON(w io.Writer) error {
	out := make(map[string][]any)
	r.walk(func(f family, points []point) {
		samples := make([]any, 0, len(points))
		for _, p := range points {
			var labels map[string]string
			if len(p.labels) > 0 {
				labels = make(map[string]string, len(p.labels)/2)
				for i := 0; i+1 < len(p.labels); i += 2 {
					labels[p.labels[i]] = p.labels[i+1]
				}
			}
			if p.hist == nil {
				samples = append(samples, jsonSample{Labels: labels, Value: finite(p.value)})
				continue
			}
			h := jsonHistogram{Labels: labels, Count: p.hist.count(), Sum: p.hist.sum,
				Buckets: make([]jsonBucket, len(p.hist.cumulative))}
			for i, c := range p.hist.cumulative {
				h.Buckets[i] = jsonBucket{Le: bucketLe(i), Count: c}
			}
			samples = append(samples, h)
		}
		out[f.name] = samples
	})
	return json.NewEncoder(w).Encode(out)
}

type jsonSample struct {
	Labels map[string]string `json:"labels,omitempty"`
	Value  *float64          `json:"value"`
}

type jsonHistogram struct {
	Labels  map[string]string `json:"labels,omitempty"`
	Count   int64             `json:"count"`
	Sum     float64           `json:"sum"`
	Buckets []jsonBucket      `json:"buckets"`
}

type jsonBucket struct {
	Le    string `json:"le"`
	Count int64  `json:"count"`
}

// finite is v, or nil — JSON null — for NaN and ±Inf, which JSON cannot
// spell and encoding/json refuses to encode.
func finite(v float64) *float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return nil
	}
	return &v
}

// bucketLe is bucket i's le label: its inclusive upper bound in seconds,
// or +Inf for the overflow bucket.
func bucketLe(i int) string {
	if i == histogramBuckets {
		return "+Inf"
	}
	return formatValue(bucketBounds[i].Seconds())
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

// formatValue renders a sample value: an integer in plain decimal, so a
// counter reads 1000000 and not 1e+06, anything else in the shortest 'g'
// form, which spells NaN and ±Inf the way the exposition format does.
func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1<<53 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

var helpEscaper = strings.NewReplacer(`\`, `\\`, "\n", `\n`)
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

func escapeHelp(s string) string  { return helpEscaper.Replace(s) }
func escapeLabel(s string) string { return labelEscaper.Replace(s) }
