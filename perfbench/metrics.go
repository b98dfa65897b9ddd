package main

import (
	"time"

	"nostop/internal/experiments"
)

// mb is the byte count of the megabyte the memory metrics use.
const mb = 1e6

// endToEnd computes the metrics a user of the program sees, from an
// untraced run's set-ups and timed jobs. Times are CPU times.
func endToEnd(setups []float64, samples []sample) []metric {
	var cpus, heaps, static, tuned []float64
	var hours, alloc float64
	for _, s := range samples {
		cpus = append(cpus, float64(s.cpu)/float64(time.Millisecond))
		heaps = append(heaps, float64(s.heap)/mb)
		hours += s.simHours
		alloc += float64(s.alloc)
		static = append(static, s.verdict.static...)
		tuned = append(tuned, s.verdict.tuned...)
	}
	n := len(samples)
	return []metric{
		{"setup_s", "s", median(setups), len(setups), 6},
		{"sim_hours_per_cpu_s", "h/s", throughput(samples), n, 6},
		{"job_cpu_ms_p50", "ms", median(cpus), n, 6},
		{"job_cpu_ms_p90", "ms", percentile(cpus, 90), n, 6},
		{"alloc_mb_per_sim_hour", "MB/h", ratio(alloc/mb, hours), n, 3},
		{"peak_heap_mb", "MB", median(heaps), n, 3},
		{"delay_gain_x", "x", ratio(median(static), median(tuned)), len(static) + len(tuned), 6},
	}
}

// profiledLayers are the program packages whose share of the traced run's
// CPU samples is reported as <layer>.self_pct, with runtime last.
var profiledLayers = []string{
	"ratetrace", "rng", "broker", "sim", "engine", "workload",
	"core", "spsa", "baselines", "gptuner", "rltuner", "linalg",
	"faults", "metrics", "tracing", "cluster", "tenant", runtimeLayer,
}

// perLayer computes the traced run's metrics: CPU share per layer from the
// profile, work counts read after each job (per job, or per simulated
// hour), span medians, and the tracing overhead against the untraced half.
func perLayer(r *runner, plain, traced []sample, sp *spans, layers map[string]int64, total int64) []metric {
	var c counts
	var hours, gcs, mallocs float64
	walls := map[string][]float64{}
	for _, s := range traced {
		c.add(s.verdict.counts)
		hours += s.simHours
		gcs += float64(s.gcs)
		mallocs += float64(s.mallocs)
		ctl := r.jobs[s.job].controller
		walls[ctl] = append(walls[ctl], float64(s.wall)/float64(time.Millisecond))
	}
	n := len(traced)
	perJob := func(v int64) float64 { return ratio(float64(v), float64(n)) }
	perHour := func(v float64) float64 { return ratio(v, hours) }
	spanMedian := func(name, span string) metric {
		d := ms(sp.durations(span))
		return metric{name, "ms", median(d), len(d), 6}
	}
	var clockNs float64
	for _, d := range sp.durations("sim.clock") {
		clockNs += float64(d)
	}

	var out []metric
	for _, l := range profiledLayers {
		out = append(out, metric{l + ".self_pct", "%", 100 * ratio(float64(layers[l]), float64(total)), int(total), 4})
	}
	out = append(out,
		metric{"broker.records_per_sim_hour", "1/h", perHour(float64(c.records)), n, 6},
		metric{"broker.redelivered", "count", perJob(c.redelivered), n, 6},
		metric{"sim.events_per_sim_hour", "1/h", perHour(float64(c.events)), n, 6},
		metric{"sim.ns_per_event", "ns", ratio(clockNs, float64(c.events)), n, 6},
		metric{"engine.batches_per_sim_hour", "1/h", perHour(float64(c.batches)), n, 6},
		metric{"engine.reconfigs", "count", perJob(c.reconfigs), n, 6},
		metric{"engine.task_retries", "count", perJob(c.retries), n, 6},
		metric{"engine.speculations", "count", perJob(c.speculations), n, 6},
		metric{"engine.shed_events", "count", perJob(c.shed), n, 6},
		metric{"faults.injected", "count", perJob(c.injected), n, 6},
		metric{"tracing.events", "count", perJob(c.traceEvents), n, 6},
		metric{"tracing.dropped", "count", perJob(c.traceDropped), n, 6},
		metric{"tracing.bytes", "B", perJob(c.traceBytes), n, 6},
		spanMedian("metrics.export_ms", "metrics.export"),
		spanMedian("tracing.export_ms", "tracing.export"),
		metric{"tenant.alloc_rounds", "count", perJob(c.allocRounds), n, 6},
		metric{"tenant.preemptions", "count", perJob(c.preemptions), n, 6},
		metric{"tenant.regrants", "count", perJob(c.regrants), n, 6},
		spanMedian("fleet.expand_ms", "fleet.expand"),
		spanMedian("fleet.assemble_ms", "fleet.assemble"),
		metric{"runtime.gc_cycles_per_sim_hour", "1/h", perHour(gcs), n, 6},
		metric{"runtime.mallocs_per_sim_hour", "1/h", perHour(mallocs), n, 6},
	)
	for _, ctl := range experiments.ZooControllers() {
		out = append(out, metric{"fleet.job_ms_p50." + ctl, "ms", median(walls[ctl]), len(walls[ctl]), 6})
	}
	overhead := 100 * (1 - ratio(throughput(traced), throughput(plain)))
	out = append(out, metric{"trace.overhead_pct", "%", overhead, len(plain) + n, 4})

	return out
}
