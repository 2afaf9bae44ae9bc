package main

import (
	"context"
	rtmetrics "runtime/metrics"

	"couchgo/internal/metrics"
)

var (
	bg          = context.Background()
	mQueueDepth = metrics.Default.Gauge("couchgo_flusher_queue_depth")
)

// endToEndUnits names every end-to-end metric and its unit.
var endToEndUnits = map[string]string{
	"throughput_ops_s": "1/s",
	"read_p50_us":      "us",
	"read_p99_us":      "us",
	"update_p50_us":    "us",
	"setup_s":          "s",
	"peak_rss_mb":      "MB",
	"space_amp":        "ratio",
}

// endToEnd computes, for one set-up instance and its window, the
// metrics a user of the system sees. On query-range the read op is the
// N1QL range scan and the update op is the insert; on the KV workloads
// they are Get and update.
func endToEnd(r *run, m *window, setup, space float64) (map[string]float64, error) {
	read, write := opRead, opUpdate
	if r.w.scanPct > 0 {
		read, write = opScan, opInsert
	}
	// Peak memory of the process under test: the server's lifetime peak
	// over the wire; in process, the window's peak, since this process
	// also ran the earlier set-ups.
	rss := m.peakRSS
	if wt, ok := r.tgt.(*wire); ok {
		var err error
		if rss, err = wt.peakRSSMB(); err != nil {
			return nil, err
		}
	}
	return map[string]float64{
		"throughput_ops_s": median(m.sliceRate),
		"read_p50_us":      sliceQuantile(m.lat[read][:], 0.50),
		"read_p99_us":      sliceQuantile(m.lat[read][:], 0.99),
		"update_p50_us":    sliceQuantile(m.lat[write][:], 0.50),
		"setup_s":          setup,
		"peak_rss_mb":      rss,
		"space_amp":        space,
	}, nil
}

// perLayer fills the traced run's per-layer metrics. Counters and
// runtime figures come from the untraced half (plain) so span
// bookkeeping does not inflate them; span-derived self times come from
// the traced half (tr). Layers a workload leaves idle read 0.
func perLayer(r *run, plain, tr *window, rec *record) {
	put := func(name, unit string, v float64) { rec.Metrics[name] = metric{Value: v, Unit: unit} }
	b, a := plain.before, plain.after
	cb, ca := plain.cliBefore, plain.cliAfter
	ops := float64(plain.ops)
	reads := float64(len(plain.all[opRead]))
	updates := float64(len(plain.all[opUpdate]))
	inserts := float64(len(plain.all[opInsert]))
	writes := updates + inserts
	userBytes := writes * float64(keyLen+recordLen) * float64(r.w.copies())
	us := func(sec float64) float64 { return sec * 1e6 }
	child := func(names ...string) samples {
		var parts []samples
		for _, c := range tr.clients {
			for _, n := range names {
				if s := c.children[n]; s != nil {
					parts = append(parts, *s)
				}
			}
		}
		return merge(parts...)
	}
	var self, qself []samples
	var examined, returned float64
	for _, c := range tr.clients {
		self = append(self, c.selfLat)
		qself = append(qself, c.queryLat)
		examined += float64(c.examined)
		returned += float64(c.returned)
	}
	rec.Attempted, rec.Failed = plain.ops+tr.ops, plain.fails+tr.fails

	// core: the smart client's own share of each op, and stale-map bounces.
	put("core.client_self_p50_us", "us", rankQuantile(merge(self...), 0.5))
	put("core.notmyvbucket_per_kop", "1/kop", 1000*ratio(delta(cb, ca, "couchgo_notmyvbucket_total", nil), ops))

	// transport: the wrapped wire call, the server's handling inside it,
	// and how well frames share syscalls.
	rtt := child("transport.get", "transport.set")
	put("transport.rtt_p50_us", "us", rankQuantile(rtt, 0.5))
	put("transport.rtt_p99_us", "us", rankQuantile(rtt, 0.99))
	okOps := map[string]string{"result": "ok"}
	put("transport.server_kv_p50_us", "us", us(quantileBetween(b, a, "couchgo_transport_op_seconds", okOps, 0.5)))
	put("transport.frames_per_syscall_client", "frames", histMean(cb, ca, "couchgo_transport_frames_per_syscall", nil))
	put("transport.frames_per_syscall_server", "frames", histMean(b, a, "couchgo_transport_frames_per_syscall", nil))
	put("transport.bytes_per_op", "B", ratio(delta(cb, ca, "couchgo_transport_bytes_total", nil), ops))

	// vbucket: the wrapped in-process node call and the flusher.
	put("vbucket.get_p50_us", "us", rankQuantile(child("vbucket.get"), 0.5))
	put("vbucket.set_p50_us", "us", rankQuantile(child("vbucket.set"), 0.5))
	// A mean, not a p50: batch sizes sit in log2 buckets whose
	// interpolated median reads 0.5 when every batch holds one item.
	put("vbucket.flush_batch_items_mean", "items", histMean(b, a, "couchgo_flusher_batch_items", nil))
	put("vbucket.flush_queue_max", "items", plain.queueMax)
	put("vbucket.flush_p99_us", "us", us(quantileBetween(b, a, "couchgo_flusher_flush_duration_seconds", nil, 0.99)))

	// cache
	hits := delta(b, a, "couchgo_cache_hits_total", nil)
	misses := delta(b, a, "couchgo_cache_misses_total", nil)
	bgf := delta(b, a, "couchgo_cache_bgfetches_total", nil)
	put("cache.hit_ratio", "ratio", ratio(hits, hits+misses+bgf))
	put("cache.bgfetch_per_read", "ratio", ratio(bgf, reads))
	put("cache.resident_ratio", "ratio", plain.resident)
	put("cache.evictions_per_kop", "1/kop", 1000*ratio(delta(b, a, "couchgo_cache_evictions_total", nil), ops))

	// storage
	put("storage.write_amp", "ratio", ratio(delta(b, a, "couchgo_storage_bytes_written_total", nil), userBytes))
	put("storage.compactions_per_s", "1/s", delta(b, a, "couchgo_storage_compactions_total", nil)/plain.elapsed)
	put("storage.compaction_reclaimed_mb", "MB", delta(b, a, "couchgo_storage_compaction_reclaimed_bytes_total", nil)/1e6)

	// dcp, feed, gsi indexing
	put("dcp.feed_mutations_per_write", "ratio", ratio(delta(b, a, "couchgo_feed_mutations_total", nil), writes))
	put("feed.stalls", "count", delta(b, a, "couchgo_feed_stalls_total", nil))
	put("gsi.indexed_per_insert", "ratio", ratio(delta(b, a, "couchgo_gsi_indexed_total", nil), inserts))

	// query phases from executor.Profile, nested under each query span.
	put("n1ql.parse_p50_us", "us", rankQuantile(child("parse"), 0.5))
	put("planner.plan_p50_us", "us", rankQuantile(child("plan"), 0.5))
	put("gsi.scan_p50_us", "us", rankQuantile(child("scan"), 0.5))
	put("executor.filter_p50_us", "us", rankQuantile(child("filter"), 0.5))
	put("executor.project_p50_us", "us", rankQuantile(child("project"), 0.5))
	put("executor.rows_examined_per_returned", "ratio", ratio(examined, returned))
	put("query.unattributed_p50_us", "us", rankQuantile(merge(qself...), 0.5))

	// Go runtime of this process: the process under test in process,
	// the client for kv-wire.
	rb, ra := plain.rtBefore, plain.rtAfter
	put("runtime.gc_cpu_fraction", "ratio", ratio(ra.gcCPU-rb.gcCPU, ra.totalCPU-rb.totalCPU))
	put("runtime.allocs_per_op", "allocs", ratio(ra.allocs-rb.allocs, ops))
	put("runtime.gc_pause_p99_us", "us", us(cumQuantile(histDeltaCum(rb.pauses, ra.pauses), 0.99)))
	put("runtime.sched_latency_p99_us", "us", us(cumQuantile(histDeltaCum(rb.sched, ra.sched), 0.99)))

	put("bench.trace_overhead_ratio", "ratio", ratio(float64(tr.ops)/tr.elapsed, ops/plain.elapsed))
}

// residentRatio is the share of items whose value is in memory, from
// the per-node gauges the server exports.
func residentRatio(after promSet) float64 {
	want := map[string]string{"bucket": bucketName}
	items := after.sum("couchgo_bucket_items", want)
	return ratio(items-after.sum("couchgo_bucket_nonresident_items", want), items)
}

// runtimeSnap is the slice of runtime/metrics the per-layer report
// differences across a window.
type runtimeSnap struct {
	gcCPU, totalCPU, allocs float64
	pauses, sched           []cumBucket
}

func readRuntime() runtimeSnap {
	s := []rtmetrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/sched/pauses/total/gc:seconds"},
		{Name: "/sched/latencies:seconds"},
	}
	rtmetrics.Read(s)
	f := func(v rtmetrics.Value) float64 {
		switch v.Kind() {
		case rtmetrics.KindFloat64:
			return v.Float64()
		case rtmetrics.KindUint64:
			return float64(v.Uint64())
		}
		return 0
	}
	return runtimeSnap{
		gcCPU: f(s[0].Value), totalCPU: f(s[1].Value), allocs: f(s[2].Value),
		pauses: cumHist(s[3].Value), sched: cumHist(s[4].Value),
	}
}

// cumHist turns a runtime/metrics histogram into cumulative buckets
// keyed by each bucket's upper edge.
func cumHist(v rtmetrics.Value) []cumBucket {
	if v.Kind() != rtmetrics.KindFloat64Histogram {
		return nil
	}
	h := v.Float64Histogram()
	out := make([]cumBucket, len(h.Counts))
	var cum float64
	for i, n := range h.Counts {
		cum += float64(n)
		out[i] = cumBucket{le: h.Buckets[i+1], count: cum}
	}
	return out
}
