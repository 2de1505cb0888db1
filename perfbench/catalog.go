package main

import (
	"sync"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	name, unit string
}

// endToEndMetrics are reported by every untraced run. They are common to
// all workloads; what one "call" and one "unit" are on each workload is in
// NOTES.md.
var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"job_cpu_s", "s"},
	{"peak_rss_mb", "MB"},
}

// layerMetrics are reported by every traced run; a layer the workload does
// not reach reads 0.
var layerMetrics = []metricDef{
	{"lp.cpu_s", "s"},
	{"lp.factorize_cpu_s", "s"},
	{"lp.ftran_cpu_s", "s"},
	{"lp.btran_cpu_s", "s"},
	{"lp.pricing_cpu_s", "s"},
	{"lp.other_cpu_s", "s"},
	{"design.cpu_s", "s"},
	{"design.pareto_s", "s"},
	{"design.minloc_s", "s"},
	{"design.twoturn_s", "s"},
	{"design.build_s", "s"},
	{"design.rounds", "count"},
	{"design.final_pivots", "count"},
	{"matching.cpu_s", "s"},
	{"matching.verify_s", "s"},
	{"eval.cpu_s", "s"},
	{"eval.flow_s", "s"},
	{"eval.worstcase_s", "s"},
	{"eval.avgcase_s", "s"},
	{"eval.report_s", "s"},
	{"paths.cpu_s", "s"},
	{"routing.cpu_s", "s"},
	{"topo.cpu_s", "s"},
	{"traffic.cpu_s", "s"},
	{"sim.cpu_s", "s"},
	{"sim.point_s", "s"},
	{"sim.cycles", "count"},
	{"sim.points", "count"},
	{"sim.cycles_per_s", "1/s"},
	{"serve.cpu_s", "s"},
	{"serve.store_hits", "count"},
	{"serve.store_misses", "count"},
	{"serve.rejected", "count"},
	{"serve.timeouts", "count"},
	{"serve.degraded", "count"},
	{"serve.solve_count", "count"},
	{"serve.solve_s_sum", "s"},
	{"serve.solve_s_max", "s"},
	{"serve.queue_depth_max", "count"},
	{"serve.warm_p50_ms", "ms"},
	{"serve.warm_p99_ms", "ms"},
	{"serve.cold_p50_ms", "ms"},
	{"serve.cold_p90_ms", "ms"},
	{"store.cpu_s", "s"},
	{"store.get_ms", "ms"},
	{"store.put_ms", "ms"},
	{"online.cpu_s", "s"},
	{"online.samples", "count"},
	{"online.resolves_ok", "count"},
	{"online.resolves_err", "count"},
	{"online.observe_p50_ms", "ms"},
	{"online.observe_p90_ms", "ms"},
	{"online.resolve_s", "s"},
	{"runtime.gc_cpu_s", "s"},
	{"runtime.syscall_cpu_s", "s"},
	{"runtime.alloc_mb", "MB"},
	{"runtime.mallocs", "count"},
	{"stdlib.json_cpu_s", "s"},
	{"stdlib.http_cpu_s", "s"},
	{"bench.driver_cpu_s", "s"},
	{"bench.other_cpu_s", "s"},
	{"bench.job_s", "s"},
	{"bench.p50_ms", "ms"},
	{"bench.p99_ms", "ms"},
	{"bench.gen_late_p99_ms", "ms"},
	{"bench.fail_frac", "ratio"},
	{"bench.trace_overhead_frac", "ratio"},
}

func unitOf(name string) string {
	for _, set := range [][]metricDef{endToEndMetrics, layerMetrics} {
		for _, m := range set {
			if m.name == name {
				return m.unit
			}
		}
	}
	return ""
}

func isLayerMetric(name string) bool {
	for _, m := range layerMetrics {
		if m.name == name {
			return true
		}
	}
	return false
}

// tracer collects a traced unit's spans and counts in memory; a nil tracer
// records nothing, so untraced units pay only a nil check. Span durations
// accumulate in seconds under the span's name.
type tracer struct {
	mu   sync.Mutex
	vals map[string]float64
}

func newTracer() *tracer { return &tracer{vals: map[string]float64{}} }

// span starts timing name; the returned func ends the span.
func (t *tracer) span(name string) func() {
	if t == nil {
		return func() {}
	}
	start := time.Now()
	return func() { t.add(name, time.Since(start).Seconds()) }
}

func (t *tracer) add(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.vals[name] += v
	t.mu.Unlock()
}

func (t *tracer) set(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.vals[name] = v
	t.mu.Unlock()
}

func (t *tracer) snapshot() map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]float64, len(t.vals))
	for k, v := range t.vals {
		out[k] = v
	}
	return out
}
