package main

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"time"

	"artemis/pkg/artemis"
)

// incident is one expected (planted hijack, owning tenant) pair.
type incident struct {
	h         int32
	tenant    string
	alertAt   int64 // -1: no alert
	mitigated bool
	announced int64 // when its last expected announcement reached the injector; -1: never
}

// verdict is the oracle's tally of failed operations by kind.
type verdict struct {
	fails map[string]int64
	notes []string
}

func (v *verdict) fail(kind string, n int64, format string, args ...any) {
	if n <= 0 {
		return
	}
	if v.fails == nil {
		v.fails = map[string]int64{}
	}
	v.fails[kind] += n
	if len(v.notes) < 12 {
		v.notes = append(v.notes, kind+": "+fmt.Sprintf(format, args...))
	}
}

func (v *verdict) total() int64 {
	t := int64(0)
	for _, n := range v.fails {
		t += n
	}
	return t
}

// traffic sums what a phase offered, from the sent batches.
type traffic struct {
	routes, owned, sub, hijackRoutes int64
	// repeats counts changes whose prefix already appeared in the same
	// node-side batch (one Inject call; one BMP message).
	repeats int64
}

func (t *traffic) add(o traffic) {
	t.routes += o.routes
	t.owned += o.owned
	t.sub += o.sub
	t.hijackRoutes += o.hijackRoutes
	t.repeats += o.repeats
}

// offered tallies phase ph's sent traffic, echoes and markers included.
func (r *runner) offered(ph int) traffic {
	pi := &r.in.phases[ph]
	var t traffic
	seen := map[int32]struct{}{}
	for _, b := range r.batches[ph] {
		meta := pi.meta
		if b.router >= 0 {
			meta = pi.wire[b.router].meta
		} else {
			clear(seen)
			for _, o := range pi.obs[b.from:b.to] {
				if _, dup := seen[o.pfx]; dup {
					t.repeats++
				}
				seen[o.pfx] = struct{}{}
			}
		}
		for _, m := range meta[b.from:b.to] {
			t.routes += int64(m.routes)
			t.owned += int64(m.owned)
			t.sub += int64(m.sub)
			t.hijackRoutes += int64(m.hijacks)
		}
	}
	e := r.echoCount[ph]
	t.routes += e.routes
	t.owned += e.routes
	t.sub += e.sub
	t.repeats += e.repeats
	for _, at := range r.markerAt[ph] {
		if at > 0 {
			t.routes++
			t.owned++
			t.hijackRoutes++
		}
	}
	return t
}

// check runs the output oracle over a finished run and returns the
// incidents it matched, with their alert and announcement times.
func (r *runner) check(sent []int64, snap *snapshots) ([]incident, verdict) {
	var v verdict
	in := r.in
	cons := r.ln.cons
	type key struct {
		h      int32
		tenant string
	}
	var incs []incident
	idx := map[key]int{}
	for h, at := range sent {
		if at < 0 {
			continue
		}
		for _, t := range in.ownerNames(in.hijacks[h].group) {
			idx[key{int32(h), t}] = len(incs)
			incs = append(incs, incident{h: int32(h), tenant: t, alertAt: -1, announced: -1})
		}
	}

	// Every planted hijack alerts exactly once per owning tenant, with the
	// expected type, prefix and owned prefix; nothing else alerts.
	for _, a := range cons.alerts {
		if a.hijack < 0 {
			v.fail("false-alert", 1, "%s %s by an unplanted origin (tenant %s)", a.typ, a.pfx, a.tenant)
			continue
		}
		i, ok := idx[key{a.hijack, a.tenant}]
		if !ok {
			v.fail("false-alert", 1, "hijack %d alerted tenant %s, which does not own it (or it was never sent)", a.hijack, a.tenant)
			continue
		}
		inc := &incs[i]
		if inc.alertAt >= 0 {
			v.fail("false-alert", 1, "hijack %d alerted tenant %s twice", a.hijack, a.tenant)
			continue
		}
		if want := in.hijacks[a.hijack].owned.String(); a.owned != want {
			v.fail("wrong-alert", 1, "hijack %d: owned %s, want %s", a.hijack, a.owned, want)
		}
		inc.alertAt = a.at
	}
	for _, inc := range incs {
		if inc.alertAt < 0 {
			h := in.hijacks[inc.h]
			v.fail("missed-alert", 1, "%s %s by AS%d for tenant %s", h.typ, h.pfx, h.origin, inc.tenant)
		}
	}

	// Every alert yields one mitigation announcing the expected
	// de-aggregation or the competitive re-announcement.
	for _, m := range cons.mits {
		i, ok := idx[key{m.hijack, m.tenant}]
		if m.hijack < 0 || !ok {
			v.fail("false-mitigation", 1, "mitigation of an unplanted incident (tenant %s)", m.tenant)
			continue
		}
		inc := &incs[i]
		h := in.hijacks[m.hijack]
		switch {
		case inc.mitigated:
			v.fail("false-mitigation", 1, "hijack %d mitigated twice for %s", m.hijack, m.tenant)
			continue
		case m.err != "":
			v.fail("mitigation-error", 1, "hijack %d: %s", m.hijack, m.err)
		case !sameSet(m.prefixes, h.expect) || !sameSet(m.announced, h.expect) || m.competitive != h.competitive:
			v.fail("wrong-mitigation", 1, "hijack %d (%s %s): announced %v competitive=%v, want %v competitive=%v",
				m.hijack, h.typ, h.pfx, m.announced, m.competitive, h.expect, h.competitive)
		}
		inc.mitigated = true
	}
	for _, inc := range incs {
		if inc.alertAt >= 0 && !inc.mitigated {
			v.fail("missed-mitigation", 1, "hijack %d tenant %s", inc.h, inc.tenant)
		}
	}
	r.matchAnnouncements(incs, &v)

	// The route counts add up: offered = filtered + deduped + delivered +
	// dropped, and the sink applied everything submitted.
	var off traffic
	off.add(r.offered(phaseSat))
	off.add(r.offered(phaseLat))
	d := snap.delta
	if r.spec.feed == feedBMP {
		filtered := off.routes - off.owned
		if got := filtered + d.dedup + d.delivered + d.drops; got != off.routes {
			v.fail("count-mismatch", abs(got-off.routes), "offered %d, filtered %d + deduped %d + delivered %d + dropped %d = %d",
				off.routes, filtered, d.dedup, d.delivered, d.drops, got)
		}
		if d.pipelineEvents != d.delivered {
			v.fail("count-mismatch", abs(d.pipelineEvents-d.delivered), "delivered %d, pipeline applied %d", d.delivered, d.pipelineEvents)
		}
	} else if d.pipelineEvents != off.routes {
		v.fail("count-mismatch", abs(d.pipelineEvents-off.routes), "injected %d, pipeline applied %d", off.routes, d.pipelineEvents)
	}
	if sub, app := snap.end["artemis_pipeline_batches_submitted_total"], snap.end["artemis_pipeline_batches_applied_total"]; sub != app {
		v.fail("count-mismatch", int64(math.Abs(sub-app)), "%v batches submitted, %v applied", sub, app)
	}
	v.fail("source-drop", d.drops, "%d route changes dropped by source queues or rate limits", d.drops)
	v.fail("station-disconnect", d.reconnects, "%d station reconnects", d.reconnects)
	v.fail("subscription-drop", cons.sub.Dropped(), "%d events dropped by the subscription", cons.sub.Dropped())
	v.fail("mitigation-failure", d.mitigationFailures, "%d mitigation or controller failures", d.mitigationFailures)
	v.fail("send-error", int64(r.sendErrs), "%d feed writes or Inject calls failed", r.sendErrs)
	v.fail("reconfig-error", int64(r.reconf.errs), "%d AddPrefixes/RemovePrefixes calls failed", r.reconf.errs)
	return incs, v
}

// matchAnnouncements pairs AnnounceRoute calls with incidents: calls
// for one prefix are handed, in call order, to the incidents expecting
// that prefix in alert order. Each incident's announcement time is its
// last expected prefix's call.
func (r *runner) matchAnnouncements(incs []incident, v *verdict) {
	inj := r.ln.inj
	calls := map[string][]int64{}
	for _, c := range inj.calls {
		calls[c.pfx] = append(calls[c.pfx], c.start)
	}
	want := map[string][]int{}
	for i, inc := range incs {
		if inc.mitigated {
			for _, p := range r.in.hijacks[inc.h].expect {
				want[p] = append(want[p], i)
			}
		}
	}
	for p, list := range want {
		sort.SliceStable(list, func(a, b int) bool { return incs[list[a]].alertAt < incs[list[b]].alertAt })
		got := calls[p]
		slices.Sort(got)
		for k, i := range list {
			if k >= len(got) {
				v.fail("missed-announce", int64(len(list)-len(got)), "%s announced %d times, %d incidents expect it", p, len(got), len(list))
				break
			}
			incs[i].announced = max(incs[i].announced, got[k])
		}
		delete(calls, p)
	}
	for p, got := range calls {
		v.fail("false-announce", int64(len(got)), "%s announced %d times, no incident expects it", p, len(got))
	}
	if inj.withdraws > 0 {
		v.fail("false-announce", int64(inj.withdraws), "%d unexpected withdrawals", inj.withdraws)
	}
}

func sameSet(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	x := slices.Clone(a)
	y := slices.Clone(b)
	slices.Sort(x)
	slices.Sort(y)
	return slices.Equal(x, y)
}

func abs(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}

// latencies returns the latency phase's alert and mitigation samples in
// milliseconds from each hijack's due time, grouped into windows of win
// of due time; a missing sample is +Inf.
func (r *runner) latencies(incs []incident, win time.Duration) (alert, mitigate [][]float64) {
	for _, inc := range incs {
		h := r.in.hijacks[inc.h]
		if h.phase != phaseLat || h.marker {
			continue
		}
		w := int(float64(h.idx) / r.spec.rate / win.Seconds())
		for len(alert) <= w {
			alert, mitigate = append(alert, nil), append(mitigate, nil)
		}
		due := r.dueAt(int32(h.idx))
		alert[w] = append(alert[w], msSince(due, inc.alertAt))
		mitigate[w] = append(mitigate[w], msSince(due, inc.announced))
	}
	return alert, mitigate
}

// window is the p99s' window: every workload plants at least 1,000
// samples per window, so a window's p99 has ten beyond it.
const window = time.Second

// windowed returns the median over windows of each window's q-quantile,
// so one stalled stretch of a run moves one window, not the figure.
func windowed(windows [][]float64, q float64) float64 {
	return median(perWindow(windows, q))
}

// quietWindow is the p50s' window: every workload plants at least 250
// samples in one.
const quietWindow = 250 * time.Millisecond

// quietest returns the lowest of the windows' medians: the node's
// latency over the stretch of the run that the other tenants of a
// shared host disturbed least. Those disturbances last from a fraction
// of a second to the whole run and only ever add latency, so a median
// over windows moves with them, while the quietest window tracks what
// the node itself does.
func quietest(windows [][]float64) float64 {
	per := perWindow(windows, 0.5)
	if len(per) == 0 {
		return math.NaN()
	}
	return slices.Min(per)
}

// perWindow returns each window's q-quantile. A trailing window shorter
// than half the first joins its predecessor.
func perWindow(windows [][]float64, q float64) []float64 {
	ws := append([][]float64(nil), windows...)
	if n := len(ws); n > 1 && 2*len(ws[n-1]) < len(ws[0]) {
		ws[n-2] = append(append([]float64(nil), ws[n-2]...), ws[n-1]...)
		ws = ws[:n-1]
	}
	per := make([]float64, 0, len(ws))
	for _, w := range ws {
		if len(w) > 0 {
			per = append(per, percentile(append([]float64(nil), w...), q))
		}
	}
	return per
}

func sampleCount(windows [][]float64) int {
	n := 0
	for _, w := range windows {
		n += len(w)
	}
	return n
}

func msSince(from, at int64) float64 {
	if at < 0 {
		return math.Inf(1)
	}
	return float64(at-from) / 1e6
}

// deltas are node counter differences over the measured phases.
type deltas struct {
	delivered, dedup, drops, reconnects int64
	pipelineEvents, tenantEvents        int64
	mitigationFailures                  int64
}

// snapshots holds the counter reads at the phase boundaries.
type snapshots struct {
	base, end prom
	delta     deltas
}

func healthTotals(h artemis.Health) (events, dedup, drops, reconnects int64) {
	for _, s := range h.Sources {
		events += s.Events
		dedup += s.DedupHits
		drops += s.Drops + s.RateShed
		reconnects += s.Reconnects
	}
	return
}

func newSnapshots(base, end prom, baseH, endH artemis.Health) *snapshots {
	s := &snapshots{base: base, end: end}
	e0, d0, x0, r0 := healthTotals(baseH)
	e1, d1, x1, r1 := healthTotals(endH)
	diff := func(name string) int64 { return int64(end.sum(name) - base.sum(name)) }
	s.delta = deltas{
		delivered: e1 - e0, dedup: d1 - d0, drops: x1 - x0, reconnects: r1 - r0,
		pipelineEvents:     diff("artemis_pipeline_events_total"),
		tenantEvents:       diff("artemis_tenant_events_total"),
		mitigationFailures: diff("artemis_mitigation_failures_total") + diff("artemis_controller_failed_actions_total") + diff("artemis_mitigation_dropped_total"),
	}
	return s
}
