package metrics

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
	"time"
)

func render(t *testing.T, r *Registry) string {
	t.Helper()
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

func TestRegistryRendersCounterGaugeHistogram(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_requests_total", "Requests served.", "endpoint", "reads")
	c.Add(3)
	r.Gauge("test_depth", "Queue depth.", func() float64 { return 7 })
	r.GaugeFunc("test_shard_keys", "Keys per shard.", func() []Sample {
		return []Sample{
			{Labels: []string{"shard", "0"}, Value: 2},
			{Labels: []string{"shard", "1"}, Value: 5},
		}
	})
	r.CounterFunc("test_recoveries_total", "Recoveries.", func() []Sample {
		return []Sample{{Value: 1}}
	})
	h := r.Histogram("test_latency_seconds", "Latency.", "stage", "block")
	h.Observe(3 * time.Microsecond)

	out := render(t, r)
	for _, want := range []string{
		"# HELP test_requests_total Requests served.\n# TYPE test_requests_total counter\ntest_requests_total{endpoint=\"reads\"} 3\n",
		"# TYPE test_depth gauge\ntest_depth 7\n",
		"test_shard_keys{shard=\"0\"} 2\ntest_shard_keys{shard=\"1\"} 5\n",
		"test_recoveries_total 1\n",
		"# TYPE test_latency_seconds histogram\n",
		"test_latency_seconds_bucket{stage=\"block\",le=\"1e-06\"} 0\n",
		"test_latency_seconds_bucket{stage=\"block\",le=\"4e-06\"} 1\n",
		"test_latency_seconds_bucket{stage=\"block\",le=\"+Inf\"} 1\n",
		"test_latency_seconds_sum{stage=\"block\"} 3e-06\n",
		"test_latency_seconds_count{stage=\"block\"} 1\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
	// Families are sorted by name.
	if strings.Index(out, "test_depth") > strings.Index(out, "test_latency_seconds") {
		t.Error("families are not sorted by name")
	}
}

// TestRegistryRendersJSON pins the JSON shape of the walk: an object keyed
// by family name, labels omitted when empty, histograms as count, sum and
// every cumulative bucket, and a family whose callback yields nothing as [].
func TestRegistryRendersJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("test_requests_total", "Requests served.", "endpoint", "reads").Add(3)
	r.Gauge("test_depth", "Queue depth.", func() float64 { return 7 })
	r.GaugeFunc("test_none", "Nothing yet.", func() []Sample { return nil })
	r.Histogram("test_latency_seconds", "Latency.", "stage", "block").Observe(3 * time.Microsecond)

	var b strings.Builder
	if err := r.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`"test_requests_total":[{"labels":{"endpoint":"reads"},"value":3}]`,
		`"test_depth":[{"value":7}]`,
		`"test_none":[]`,
		`"test_latency_seconds":[{"labels":{"stage":"block"},"count":1,"sum":0.000003,"buckets":[{"le":"1e-06","count":0},{"le":"2e-06","count":0},{"le":"4e-06","count":1},`,
		`{"le":"+Inf","count":1}]}]`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("JSON missing %s in:\n%s", want, out)
		}
	}
	if strings.Count(out, "\n") != 1 || !strings.HasSuffix(out, "\n") {
		t.Errorf("JSON is not one line: %q", out)
	}
}

// TestJSONNonFiniteIsNull pins that a NaN or ±Inf sample renders as null
// instead of failing the encode, and that the reply still parses.
func TestJSONNonFiniteIsNull(t *testing.T) {
	r := NewRegistry()
	r.Gauge("test_nan", "NaN.", func() float64 { return math.NaN() })
	r.GaugeFunc("test_inf", "Inf.", func() []Sample {
		return []Sample{{Labels: []string{"sign", "+"}, Value: math.Inf(1)}, {Labels: []string{"sign", "-"}, Value: math.Inf(-1)}}
	})
	r.Gauge("test_finite", "Finite.", func() float64 { return 1.5 })
	var b strings.Builder
	if err := r.WriteJSON(&b); err != nil {
		t.Fatalf("WriteJSON with non-finite samples: %v", err)
	}
	var got map[string][]struct {
		Value *float64 `json:"value"`
	}
	if err := json.Unmarshal([]byte(b.String()), &got); err != nil {
		t.Fatalf("reply does not parse: %v\n%s", err, b.String())
	}
	if len(got["test_nan"]) != 1 || got["test_nan"][0].Value != nil {
		t.Errorf("NaN gauge = %s, want null", b.String())
	}
	if len(got["test_inf"]) != 2 || got["test_inf"][0].Value != nil || got["test_inf"][1].Value != nil {
		t.Errorf("±Inf samples = %s, want null", b.String())
	}
	if v := got["test_finite"]; len(v) != 1 || v[0].Value == nil || *v[0].Value != 1.5 {
		t.Errorf("finite gauge = %s, want 1.5", b.String())
	}
}

func TestRegistrySharedFamily(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("test_outcomes_total", "Outcomes.", "outcome", "reused")
	b := r.Counter("test_outcomes_total", "Outcomes.", "outcome", "prepared")
	a.Add(1)
	b.Add(2)
	out := render(t, r)
	// One HELP/TYPE pair, two series.
	if strings.Count(out, "# TYPE test_outcomes_total counter") != 1 {
		t.Fatalf("want exactly one TYPE line:\n%s", out)
	}
	if !strings.Contains(out, "test_outcomes_total{outcome=\"reused\"} 1\n") ||
		!strings.Contains(out, "test_outcomes_total{outcome=\"prepared\"} 2\n") {
		t.Fatalf("missing series:\n%s", out)
	}
}

func TestRegistryPanicsOnConflictsAndBadNames(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: want panic", name)
			}
		}()
		fn()
	}
	r := NewRegistry()
	r.Counter("test_total", "A counter.")
	mustPanic("type conflict", func() { r.Gauge("test_total", "A counter.", func() float64 { return 0 }) })
	mustPanic("help conflict", func() { r.Counter("test_total", "Different help.") })
	mustPanic("bad metric name", func() { r.Counter("bad-name", "x") })
	mustPanic("bad label name", func() { r.Counter("test_ok_total", "x", "bad-label", "v") })
	mustPanic("odd labels", func() { r.Counter("test_odd_total", "x", "only_key") })
}

func TestRegistryEscapesLabelValuesAndHelp(t *testing.T) {
	r := NewRegistry()
	r.Counter("test_escape_total", "line1\nline2 \\ backslash", "k", "quote\"back\\slash\nnl")
	out := render(t, r)
	if !strings.Contains(out, `# HELP test_escape_total line1\nline2 \\ backslash`) {
		t.Errorf("help not escaped:\n%s", out)
	}
	if !strings.Contains(out, `test_escape_total{k="quote\"back\\slash\nnl"} 0`) {
		t.Errorf("label value not escaped:\n%s", out)
	}
}

// TestRegistryExpositionSyntax lint-checks the rendered output against the
// shared exposition grammar — the package-level half of the /metrics
// conformance contract (the service test covers the full endpoint).
func TestRegistryExpositionSyntax(t *testing.T) {
	r := NewRegistry()
	r.Counter("test_a_total", "A.", "k", "v").Add(5)
	r.Gauge("test_b", "B.", func() float64 { return 1.5 })
	h := r.Histogram("test_c_seconds", "C.", "stage", "x")
	for i := 0; i < 100; i++ {
		h.Observe(time.Duration(i) * 100 * time.Microsecond)
	}
	out := render(t, r)
	for _, p := range LintExposition(out) {
		t.Error(p)
	}
	if !strings.Contains(out, "test_c_seconds_count") {
		t.Error("histogram family missing from exposition")
	}
}

// TestLintCatchesViolations makes sure the linter is not vacuously green.
func TestLintCatchesViolations(t *testing.T) {
	for _, tc := range []struct{ name, text string }{
		{"sample before TYPE", "test_x 1\n"},
		{"malformed sample", "# TYPE test_x gauge\ntest_x{bad-label=\"v\"} 1\n"},
		{"non-cumulative buckets", "# TYPE test_h histogram\ntest_h_bucket{le=\"1\"} 5\ntest_h_bucket{le=\"2\"} 3\ntest_h_bucket{le=\"+Inf\"} 5\ntest_h_sum 1\ntest_h_count 5\n"},
		{"inf vs count mismatch", "# TYPE test_h histogram\ntest_h_bucket{le=\"+Inf\"} 4\ntest_h_sum 1\ntest_h_count 5\n"},
	} {
		if len(LintExposition(tc.text)) == 0 {
			t.Errorf("%s: lint found no problems", tc.name)
		}
	}
}
