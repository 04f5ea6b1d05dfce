package main

import (
	"fmt"
	"time"
)

// Metric names. The end-to-end names are shared by every workload: each
// maps its request kinds onto the main, side and third slots (README.md
// has the table), and BENCHMARK.json lists exactly these.
var endToEndNames = []string{
	"setup_s", "p50_ms", "main_p50_ms",
	"side_p50_ms", "third_p50_ms", "rps", "heap_mb",
}

// openPhase is the phase the workload's own latency metrics come from:
// the open loop where the workload has one, else the closed loop.
func (p *pass) openPhase() ([]sample, time.Duration, []bool) {
	if len(p.open) > 0 {
		return p.open, p.openDur, p.openQuiet
	}
	return p.closed, p.closedDur, p.closedQuiet
}

func all(*sample) bool { return true }

func inSlot(slot int) func(*sample) bool {
	return func(s *sample) bool { return s.op.slot == slot }
}

func ofKind(kind string) func(*sample) bool {
	return func(s *sample) bool { return s.op.kind == kind }
}

// lat sets name to the windowed q-quantile latency of the phase's
// samples selected by keep.
func (r *report) lat(name string, ss []sample, span time.Duration, quiet []bool, keep func(*sample) bool, q float64) {
	v, n := windowed(ss, span, quiet, keep, q)
	r.set(name, v, "ms", fmt.Sprintf("n=%d, median of the quiet windows", n))
}

// rate sets name to the closed loop's windowed completed requests per
// second.
func (r *report) rate(name string, p *pass) {
	v, n := windowedRate(p.closed, p.closedDur, p.closedQuiet)
	r.set(name, v, "1/s", fmt.Sprintf("n=%d over %.1fs closed loop, median of the quiet windows", n, p.closedDur.Seconds()))
}

// endToEnd derives the gated metrics. Their latencies come from the
// closed loop: at the open loop's low load a sub-millisecond request is
// mostly thread wake-ups, whose cost swings from run to run with the
// host's load far more than the daemon's work does.
func endToEnd(p *pass) *report {
	r := newReport()
	ss, span, quiet := p.closed, p.closedDur, p.closedQuiet
	r.set("setup_s", median(p.setupS), "s", fmt.Sprintf("median of %d set-ups", len(p.setupS)))
	r.lat("p50_ms", ss, span, quiet, all, 0.5)
	r.lat("main_p50_ms", ss, span, quiet, inSlot(slotMain), 0.5)
	r.lat("side_p50_ms", ss, span, quiet, inSlot(slotSide), 0.5)
	r.lat("third_p50_ms", ss, span, quiet, inSlot(slotThird), 0.5)
	r.rate("rps", p)
	r.set("heap_mb", p.heapMB, "MB", "live heap after a forced GC, benchmark inputs included")
	return r
}

// named reports the workload's metrics under their own names: open-loop
// latency by request kind, closed-loop throughput, and live-write's
// recovery time and disk amplification.
func named(p *pass) *report {
	r := newReport()
	ss, span, quiet := p.openPhase()
	for _, nl := range p.w.named {
		r.lat(nl.name, ss, span, quiet, ofKind(nl.kind), nl.q)
	}
	r.rate(p.w.throughputName, p)
	if v, ok := p.extra["recover_s"]; ok {
		r.set("recover_s", v, "s", fmt.Sprintf("median of %d recoveries", recoveries))
		user := p.setupBytes + p.loadBytes
		r.set("disk_bytes_per_user_byte", ratio(p.extra["disk_bytes"], float64(user)), "ratio",
			fmt.Sprintf("%.0f data-dir bytes / %d accepted request-body bytes", p.extra["disk_bytes"], user))
	}
	return r
}

// perLayer derives the per-layer metrics of a traced run: pu is the
// untraced pass, pt the traced HTTP pass (client, middleware and
// journal spans; telemetry scrapes), direct the direct-call pass's
// spans. A metric whose operation the workload does not issue reads 0
// with n=0.
func perLayer(pu, pt *pass, direct []span) *report {
	r := newReport()
	hx, dx := indexSpans(pt.tr.snapshot()), indexSpans(direct)
	p50 := func(name string, xs []float64, unit string, scale float64) {
		for i := range xs {
			xs[i] *= scale
		}
		r.set(name, quantile(xs, 0.5), unit, fmt.Sprintf("n=%d", len(xs)))
	}
	p99 := func(name string, xs []float64, unit string, scale float64) {
		for i := range xs {
			xs[i] *= scale
		}
		r.set(name, quantile(xs, 0.99), unit, fmt.Sprintf("n=%d", len(xs)))
	}
	cnt := func(name string, v float64, note string) { r.set(name, v, "count", note) }
	rat := func(name string, num, den float64, what string) {
		r.set(name, ratio(num, den), "ratio", fmt.Sprintf("%.0f / %.0f %s", num, den, what))
	}
	ss := pt.samples()

	// server: handler span minus its children — the journal spans of the
	// same request, and the direct-call spans of the same op.
	p50("server.self_us.p50.lineage", hx.selfTimes("server.lineage", "storage.", dx, "runs."), "us", 1)
	p50("server.self_us.p50.validate", hx.selfTimes("server.validate", "storage.", dx, "engine."), "us", 1)
	shed := 0
	var lineageBytes []float64
	for i := range ss {
		if ss[i].status == 503 {
			shed++
		}
		if ss[i].ok() && ss[i].op.kind == "lineage" {
			lineageBytes = append(lineageBytes, float64(ss[i].bytes))
		}
	}
	rat("server.shed_ratio", float64(shed), float64(len(ss)), "requests")
	cnt("server.requests", float64(len(ss)), "base of server.shed_ratio")
	r.set("server.response_bytes.p50.lineage", quantile(lineageBytes, 0.5), "bytes", fmt.Sprintf("n=%d", len(lineageBytes)))

	// engine: commit-side ratios over the open loop, whose op set is
	// fixed by the seed.
	c0, c1, c2 := pt.c0, pt.c1, pt.c2
	commits := delta(c0, c1, "wolves_epoch_publishes_total")
	cnt("engine.commits", commits, "epoch publications in the open loop: base of the per-commit ratios")
	rat("engine.view_label_builds_per_commit", delta(c0, c1, "wolves_label_index_view_builds_total"), commits, "view label builds / commits")
	rat("engine.label_patches_per_commit", delta(c0, c1, "wolves_label_index_patches_total"), commits, "label patches / commits")
	rat("engine.label_rebuilds_per_commit", delta(c0, c1, "wolves_label_index_rebuilds_total"), commits, "label rebuilds / commits")
	p50("engine.mutate_self_us.p50", dx.selfTimes("engine.mutate", "storage.", nil, ""), "us", 1)
	p99("engine.mutate_self_us.p99", dx.selfTimes("engine.mutate", "storage.", nil, ""), "us", 1)
	p50("engine.attach_view_ms.p50", dx.durations("engine.attach_view"), "ms", 1e-3)
	ah, am := delta(c0, c2, "wolves_audit_cache_hits_total"), delta(c0, c2, "wolves_audit_cache_misses_total")
	rat("engine.audit_cache_hit_ratio", ah, ah+am, "audit cache hits / lookups")
	queries := delta(c0, c2, "wolves_lineage_queries_total")
	rat("engine.lineage_fallback_ratio", delta(c0, c2, "wolves_lineage_fallbacks_total"), queries, "closure-row fallbacks / lineage queries")
	rat("engine.drift_retries_per_query", delta(c0, c2, "wolves_lineage_drift_retries_total"), queries, "epoch drift retries / lineage queries")
	oh := float64(c2.stats.Cache.Hits - c0.stats.Cache.Hits)
	om := float64(c2.stats.Cache.Misses - c0.stats.Cache.Misses)
	rat("engine.oracle_cache_hit_ratio", oh, oh+om, "oracle cache hits / lookups")
	cnt("engine.oracle_evictions", float64(c2.stats.Cache.Evictions-c0.stats.Cache.Evictions), "over the load")
	p50("engine.oracle_build_ms.p50", dx.durations("engine.oracle_build"), "ms", 1e-3)
	p50("engine.validate_ms.p50", dx.durations("engine.validate"), "ms", 1e-3)
	p50("engine.correct_ms.p50.weak", dx.durations("engine.correct.weak"), "ms", 1e-3)
	p50("engine.correct_ms.p50.strong", dx.durations("engine.correct.strong"), "ms", 1e-3)

	// runs: the direct-call pass.
	for _, lvl := range []string{"exact", "view", "audited"} {
		p50("runs.lineage_us.p50."+lvl, dx.durations("runs.lineage."+lvl), "us", 1)
	}
	p50("runs.encode_us.p50", dx.durations("runs.encode"), "us", 1)
	p50("runs.batch_query_ms.p50", dx.durations("runs.batch"), "ms", 1e-3)
	p50("runs.ingest_self_ms.p50.doc", dx.selfTimes("runs.ingest.doc", "storage.", nil, ""), "ms", 1e-3)
	p50("runs.ingest_self_ms.p50.ndjson", dx.selfTimes("runs.ingest.ndjson", "storage.", nil, ""), "ms", 1e-3)

	// storage: journal spans nested under HTTP requests, and the WAL and
	// snapshot counters over the whole load.
	p50("storage.journal_us.p50.committed", hx.durations("storage.committed"), "us", 1)
	p99("storage.journal_us.p99.committed", hx.durations("storage.committed"), "us", 1)
	p99("storage.journal_us.p99.run_ingested", hx.durations("storage.run_ingested"), "us", 1)
	p50("storage.journal_us.p50.view_attached", hx.durations("storage.view_attached"), "us", 1)
	appends := delta(c0, c2, "wolves_wal_appends_total")
	rat("storage.fsyncs_per_append", delta(c0, c2, "wolves_wal_fsyncs_total"), appends, "fsyncs / WAL appends")
	cnt("storage.appends", appends, "base of storage.fsyncs_per_append")
	user := float64(pt.loadBytes)
	rat("storage.wal_bytes_per_user_byte", delta(c0, c2, "wolves_wal_append_bytes_total"), user, "WAL bytes / accepted request-body bytes")
	rat("storage.snapshot_bytes_per_user_byte", delta(c0, c2, "wolves_snapshot_bytes_total"), user, "snapshot bytes / accepted request-body bytes")
	cnt("storage.snapshots", delta(c0, c2, "wolves_snapshot_publishes_total"), "over the load")
	cnt("storage.rotations", delta(c0, c2, "wolves_wal_rotations_total"), "over the load")
	runs, wall := pt.extra["recovered_runs"], pt.extra["recover_wall_s"]
	r.set("storage.recover_runs_per_s", ratio(runs, wall), "1/s",
		fmt.Sprintf("%.0f runs restored / %.3fs of the last recovery", runs, wall))
	cnt("storage.replayed_records", pt.extra["replayed_records"], "WAL records the last recovery replayed past its snapshots")

	// bench: the harness's own honesty figures.
	var late []float64
	for i := range pt.open {
		late = append(late, float64(pt.open[i].late)/float64(time.Millisecond))
	}
	p99("bench.generator_late_ms.p99", late, "ms", 1)
	untraced, _ := windowed(pu.closed, pu.closedDur, pu.closedQuiet, all, 0.5)
	tracedP50, _ := windowed(pt.closed, pt.closedDur, pt.closedQuiet, all, 0.5)
	r.set("bench.trace_overhead_ratio", ratio(tracedP50, untraced), "ratio",
		fmt.Sprintf("traced p50 %.4fms / untraced p50 %.4fms", tracedP50, untraced))
	r.set("bench.untraced_p50_ms", untraced, "ms", "base of bench.trace_overhead_ratio")
	r.set("bench.traced_p50_ms", tracedP50, "ms", "base of bench.trace_overhead_ratio")
	att, refused, e5, _, _ := pt.counts()
	cnt("bench.attempted", float64(att), "requests of the traced pass")
	cnt("bench.refused", float64(refused), "503s of the traced pass")
	cnt("bench.errors_5xx", float64(e5), "other 5xx of the traced pass")
	cnt("bench.wrong_answers", float64(pt.wrong), "failed output checks of the traced pass")
	return r
}
