// Package web exercises metricreg: instruments must come from a Registry
// and carry conforming ersolve_ names.
package web

import "repro/internal/metrics"

var reg = &metrics.Registry{}

func bad() {
	_ = &metrics.Counter{}                       // want `metrics.Counter constructed as a literal never renders on /metrics`
	_ = new(metrics.Histogram)                   // want `new\(metrics.Histogram\) never renders on /metrics`
	_ = reg.Counter("requests_total")            // want `metric name "requests_total" is outside the ersolve_ namespace`
	_ = reg.Counter("ersolve_requests")          // want `metric name "ersolve_requests" is a counter and must end in _total`
	_ = reg.Histogram("ersolve_latency_ms", nil) // want `metric name "ersolve_latency_ms" is a histogram and must carry its unit suffix \(_seconds\)`
	_ = reg.Gauge("ersolve_Depth")               // want `must be snake_case`
	_ = reg.Gauge("ersolve__depth")              // want `has empty name segments`
	name := dynamic()
	_ = reg.Counter(name) // want `metric name must be a compile-time constant`
}

func dynamic() string { return "ersolve_dynamic_total" }

func good() {
	_ = reg.Counter("ersolve_requests_total")
	_ = reg.Gauge("ersolve_store_docs")
	_ = reg.Histogram("ersolve_resolve_seconds", nil)
}
