package main

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"time"
)

// metric is one reported figure.
type metric struct {
	name  string
	unit  string
	value float64
}

// e2eMetrics are the figures an operator sees, in report order. The
// bounded ones are BENCHMARK.json's end_to_end metrics; the p99s swing
// with the shared host from run to run, so they are reported in the
// human report and as per-layer metrics of the traced run instead.
var e2eMetrics = []struct {
	name, unit string
	bounded    bool
}{
	{"setup_s", "s", true},
	{"throughput_eps", "1/s", true},
	{"alert_p50_ms", "ms", true},
	{"alert_p99_ms", "ms", false},
	{"mitigate_p50_ms", "ms", true},
	{"mitigate_p99_ms", "ms", false},
	{"cpu_us_per_event", "us", true},
	{"peak_rss_mib", "MiB", true},
}

// runResult is one measured node run.
type runResult struct {
	e2e       map[string]float64
	layer     []metric
	attempted int64
	verdict   verdict
	props     []metric
	samples   int
	// windowP50 is each quiet window's alert p50 and windowP99 each
	// window's alert p99, for the report.
	windowP50, windowP99 []float64
}

func (res *runResult) failed() int64 { return res.verdict.total() }

// measure runs one workload end to end on a fresh node: repeated
// setups, the closed-loop saturation phase, the open-loop latency
// phase, drain, oracle. With tr set it also records spans, samples
// counters and times the standalone layers.
func measure(in *inputs, o options, tr *tracer, ribPath string) (*runResult, error) {
	r := newRunner(in, time.Duration(o.seconds*satShare*float64(time.Second)), tr, ribPath)
	r.wait = o.wait
	spec := in.spec
	var echo func(string)
	if spec.returnVPs > 0 {
		echo = r.pushEcho
	}
	var setups []float64
	for k := 0; k < spec.setups; k++ {
		ln, d, err := setup(in, ribPath, o.hook, echo)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, d.Seconds())
		if k < spec.setups-1 {
			ln.teardown()
		} else {
			r.ln = ln
		}
	}
	node := r.ln.node
	base, baseH := scrape(node), node.Health()
	g0 := readGoStats()
	var samp *sampler
	if tr != nil {
		samp = startSampler(node)
	}
	// Saturation: closed loop until the deadline, then the markers; the
	// phase ends when every marker's alerts are in. Each phase starts
	// from a collected heap, so GC cycles land alike on every run.
	runtime.GC()
	satStart := nowNS()
	r.saturate(satStart)
	satEnds := r.waitMarkers(phaseSat)
	satTraffic := r.offered(phaseSat)

	// Latency: open loop at the workload's rate; the phase ends when
	// every planted hijack's alerts and announcements are in. Live
	// reconfiguration runs here, where its barrier shows as latency; in
	// the saturation phase its stalls would swamp the throughput figure.
	runtime.GC()
	stopReconf, reconfDone := make(chan struct{}), make(chan struct{})
	if spec.reconfigEvery > 0 {
		go r.reconfigure(stopReconf, reconfDone)
	} else {
		close(reconfDone)
	}
	cpu0 := cpuTime()
	r.openLoop()
	close(stopReconf)
	<-reconfDone
	sent := r.hijacksSent()
	wantAlerts, wantAnn := int64(0), int64(0)
	planted := 0
	for h, at := range sent {
		if at < 0 {
			continue
		}
		planted++
		owners := int64(len(in.ownerNames(in.hijacks[h].group)))
		wantAlerts += owners
		wantAnn += owners * int64(len(in.hijacks[h].expect))
	}
	r.waitMarkers(phaseLat)
	cons := r.ln.cons
	waitFor(func() bool {
		return cons.nAlerts.Load() >= wantAlerts && cons.nMits.Load() >= wantAlerts && r.ln.inj.n.Load() >= wantAnn
	}, time.Millisecond, r.wait)
	latEnd := nowNS()
	cpu1 := cpuTime()
	g1 := readGoStats()
	if samp != nil {
		samp.halt()
	}
	latTraffic := r.offered(phaseLat)
	r.ln.teardown()
	snap := newSnapshots(base, scrape(node), baseH, node.Health())

	incs, v := r.check(sent, snap)
	alert, mitigate := r.latencies(incs, window)
	alertQ, mitigateQ := r.latencies(incs, quietWindow)
	res := &runResult{verdict: v, samples: sampleCount(alert), windowP50: perWindow(alertQ, 0.5),
		windowP99: perWindow(alert, 0.99)}
	res.attempted = satTraffic.routes + latTraffic.routes + int64(planted)
	res.e2e = map[string]float64{
		"setup_s":          median(setups),
		"throughput_eps":   r.throughput(satStart, satEnds),
		"alert_p50_ms":     quietest(alertQ),
		"alert_p99_ms":     windowed(alert, 0.99),
		"mitigate_p50_ms":  quietest(mitigateQ),
		"mitigate_p99_ms":  windowed(mitigate, 0.99),
		"cpu_us_per_event": float64((cpu1 - cpu0).Microseconds()) / float64(latTraffic.routes),
		"peak_rss_mib":     peakRSSMiB(),
	}

	var all traffic
	all.add(satTraffic)
	all.add(latTraffic)
	d := snap.delta
	filtered, dedupShare := 0.0, 0.0
	if spec.feed == feedBMP {
		filtered = share(all.routes-all.owned, all.routes)
		dedupShare = share(d.dedup, d.delivered+d.dedup)
	}
	res.props = []metric{
		{"filtered", "share", filtered},
		{"dedup", "share", dedupShare},
		{"prefix_repeat", "share", share(all.repeats, all.routes)},
		{"subprefix", "share", share(all.sub, all.owned)},
		{"owned_space", "share", share(all.owned, all.routes)},
		{"hijack", "share", share(all.hijackRoutes, all.routes)},
	}
	if tr == nil {
		return res, nil
	}

	// Per-layer figures from the traced run.
	st, err := r.timeStandalone()
	if err != nil {
		return nil, fmt.Errorf("standalone timings: %w", err)
	}
	r.hijackSpans(incs, sent)
	wall := float64(latEnd - satStart)
	shards := 0.0
	for k := range snap.end {
		if strings.HasPrefix(k, "artemis_pipeline_shard_events_total{") {
			shards++
		}
	}
	diff := func(name string) float64 { return snap.end.sum(name) - base.sum(name) }
	pev := float64(d.pipelineEvents)
	var late []float64
	pi := &in.phases[phaseLat]
	for _, b := range r.batches[phaseLat] {
		meta := pi.meta
		if b.router >= 0 {
			meta = pi.wire[b.router].meta
		}
		for _, m := range meta[b.from:b.to] {
			late = append(late, float64(b.start-r.dueAt(m.logical))/1e6)
		}
	}
	var injectNS, injected float64
	var reconf, a2a []float64
	for _, s := range tr.spans {
		switch s.name {
		case "node.inject":
			injectNS += float64(s.end - s.start)
			injected += float64(s.n)
		}
	}
	for _, s := range r.reconf.spans {
		reconf = append(reconf, float64(s.end-s.start)/1e6)
	}
	yield := 0
	for _, inc := range incs {
		if inc.alertAt >= 0 {
			yield++
			if inc.announced >= 0 {
				a2a = append(a2a, float64(inc.announced-inc.alertAt)/1e6)
			}
		}
	}
	self := tr.selfTimes()
	ribLoad := r.ln.node.RIBBootstrap().Elapsed.Seconds()
	res.layer = []metric{
		{"alert_p99_ms", "ms", res.e2e["alert_p99_ms"]},
		{"mitigate_p99_ms", "ms", res.e2e["mitigate_p99_ms"]},
		{"gen.late_p99_ms", "ms", percentile(late, 0.99)},
		{"bmp.decode_ns_per_msg", "ns", st.decodeNS},
		{"bmp.allocs_per_msg", "count", st.allocsPerMsg},
		{"ingest.filter_ns_per_route", "ns", st.filterNS},
		{"ingest.filtered_share", "share", filtered},
		{"ingest.dedup_share", "share", dedupShare},
		{"ingest.delivery_p50_us", "us", snap.end.histQuantile("artemis_ingest_source_delivery_latency_seconds", 0.5) * 1e6},
		{"ingest.queue_depth_max", "count", samp.queueMax},
		{"ingest.drops", "count", float64(d.drops + d.reconnects)},
		{"node.inject_ns_per_event", "ns", ratio(injectNS, injected)},
		{"node.reconfig_ms_p50", "ms", zeroNaN(percentile(reconf, 0.5))},
		{"node.sub_drops", "count", float64(cons.sub.Dropped())},
		{"pipeline.shard_ns_per_event", "ns", ratio(diff("artemis_pipeline_shard_service_seconds_sum")*1e9, pev)},
		{"pipeline.shard_busy_share", "share", ratio(diff("artemis_pipeline_shard_service_seconds_sum")*1e9, shards*wall)},
		{"pipeline.sink_ns_per_event", "ns", ratio(diff("artemis_pipeline_sink_apply_seconds_sum")*1e9, pev)},
		{"pipeline.sink_busy_share", "share", ratio(diff("artemis_pipeline_sink_apply_seconds_sum")*1e9, wall)},
		{"pipeline.inflight_max", "count", samp.inflightMax},
		{"pipeline.prefix_repeat_share", "share", share(all.repeats, all.routes)},
		{"detect.classifications_per_event", "count", ratio(float64(d.tenantEvents), pev)},
		{"detect.subprefix_share", "share", share(all.sub, all.owned)},
		{"detect.hijacks", "count", float64(planted)},
		{"detect.alert_samples", "count", float64(sampleCount(alert))},
		{"detect.alert_yield", "share", share(int64(yield), int64(len(incs)))},
		{"detect.false_alerts", "count", float64(v.fails["false-alert"])},
		{"mitigate.wait_p50_us", "us", snap.end.histQuantile("artemis_mitigation_wait_seconds", 0.5) * 1e6},
		{"mitigate.handle_p50_us", "us", snap.end.histQuantile("artemis_mitigation_handle_seconds", 0.5) * 1e6},
		{"mitigate.alert_to_announce_p50_ms", "ms", zeroNaN(percentile(a2a, 0.5))},
		{"mitigate.blocked", "count", diff("artemis_mitigation_blocked_total")},
		{"mitigate.failures", "count", float64(d.mitigationFailures)},
		{"rib.load_s", "s", ribLoad},
		{"rib.apply_ns_per_event", "ns", st.ribApplyNS},
		{"go.allocs_per_event", "count", ratio(float64(g1.allocs-g0.allocs), float64(all.routes))},
		{"go.gc_cpu_share", "share", ratio(g1.gcCPU-g0.gcCPU, g1.totalCPU-g0.totalCPU)},
		{"go.heap_peak_mib", "MiB", float64(samp.heapMax) / (1 << 20)},
	}
	for _, name := range spanNames {
		res.layer = append(res.layer, metric{"self." + name + "_ms", "ms", float64(self[name]) / 1e6})
	}
	return res, nil
}

// spanNames are the traced layer boundaries, in report order.
// (alert.recv and mitigate.announce are instants and have no self time.)
var spanNames = []string{"gen.send", "node.inject", "node.reconfig", "gen.hijack"}

func share(n, of int64) float64 {
	if of == 0 {
		return 0
	}
	return float64(n) / float64(of)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func zeroNaN(x float64) float64 {
	if math.IsNaN(x) {
		return 0
	}
	return x
}

// waitMarkers waits until every marker of phase ph has alerted each of
// its owners and returns, per router, when its marker's last alert
// arrived.
func (r *runner) waitMarkers(ph int) []int64 {
	in, cons := r.in, r.ln.cons
	markers := in.phases[ph].markers
	waitFor(func() bool {
		for _, id := range markers {
			if int(cons.matched[id].Load()) < len(in.ownerNames(in.hijacks[id].group)) {
				return false
			}
		}
		return true
	}, 50*time.Microsecond, r.wait)
	ends := make([]int64, len(markers))
	for rt, id := range markers {
		if ends[rt] = cons.lastAt[id].Load(); ends[rt] == 0 {
			ends[rt] = nowNS() // the marker never alerted; the oracle fails the run
		}
	}
	return ends
}

// throughput is the saturation phase's route changes processed per
// second, summed over the feeds: each router's (or the Inject feed's)
// route changes, its marker and the echoes included, over the time from
// the phase start to its marker's alert. Summing per feed keeps a run
// in which one station lags the other from reading as a slower node.
func (r *runner) throughput(start int64, ends []int64) float64 {
	routes := make([]int64, len(ends))
	pi := &r.in.phases[phaseSat]
	for _, b := range r.batches[phaseSat] {
		rt, meta := 0, pi.meta
		if b.router >= 0 {
			rt, meta = int(b.router), pi.wire[b.router].meta
		}
		for _, m := range meta[b.from:b.to] {
			routes[rt] += int64(m.routes)
		}
	}
	routes[0] += r.echoCount[phaseSat].routes
	total := 0.0
	for rt, end := range ends {
		total += float64(routes[rt]+1) / (float64(end-start) / 1e9)
	}
	return total
}
