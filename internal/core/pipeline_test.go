package core

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"artemis/internal/bgp"
	"artemis/internal/feeds/feedtypes"
	"artemis/internal/prefix"
)

// multiOwnedConfig spreads ownership over several prefixes so sharding has
// something to key on.
func multiOwnedConfig() *Config {
	return &Config{
		OwnedPrefixes: []prefix.Prefix{
			prefix.MustParse("10.0.0.0/23"),
			prefix.MustParse("10.1.0.0/22"),
			prefix.MustParse("192.0.2.0/24"),
			prefix.MustParse("198.51.100.0/24"),
			prefix.MustParse("203.0.113.0/24"),
		},
		LegitOrigins: []bgp.ASN{61000},
	}
}

// testBatches supplies the batches tests submit, with poisoning on: a
// pipeline that read a batch after releasing it would classify sentinel
// events and break every oracle below.
var testBatches = func() *feedtypes.BatchPool {
	p := feedtypes.NewBatchPool()
	p.SetPoison(true)
	return p
}()

// batchOf copies evs into a pooled batch for Submit to take over.
func batchOf(evs []feedtypes.Event) *feedtypes.Batch {
	b := testBatches.Get()
	b.AppendEvents(evs)
	return b
}

// shardFor reports the shard the router assigns a prefix, by routing a
// one-event job under the active snapshot.
func (p *Pipeline) shardFor(pfx prefix.Prefix) int {
	p.life.RLock()
	defer p.life.RUnlock()
	job := new(batchJob)
	job.reset(len(p.shards))
	job.table = p.table
	job.batch = &feedtypes.Batch{Events: []feedtypes.Event{{Prefix: pfx}}}
	p.routeBatch(job, len(p.shards))
	return int(job.shardOf[0])
}

func TestPipelineShardRouting(t *testing.T) {
	cfg := multiOwnedConfig()
	p := NewPipeline(NewDetector(cfg), nil, PipelineConfig{Shards: 3})
	defer p.Close()

	// Deterministic: the same prefix always routes to the same shard.
	for _, s := range []string{"10.0.0.0/23", "10.0.1.0/24", "10.1.2.0/24", "10.0.0.0/8", "172.16.0.0/12"} {
		pfx := prefix.MustParse(s)
		want := p.shardFor(pfx)
		for i := 0; i < 10; i++ {
			if got := p.shardFor(pfx); got != want {
				t.Fatalf("shardFor(%s) flapped: %d then %d", s, want, got)
			}
		}
	}
	// Everything under one owned prefix shares that prefix's shard.
	ownedShard := p.shardFor(prefix.MustParse("10.0.0.0/23"))
	for _, s := range []string{"10.0.0.0/24", "10.0.1.0/24", "10.0.0.128/25", "10.0.1.192/26"} {
		if got := p.shardFor(prefix.MustParse(s)); got != ownedShard {
			t.Errorf("shardFor(%s) = %d, want owned prefix's shard %d", s, got, ownedShard)
		}
	}
	// A covering super-prefix (squat evidence) routes to a shard of some
	// owned prefix it covers — stably.
	super := prefix.MustParse("10.0.0.0/15")
	if got := p.shardFor(super); got != p.shardFor(super) {
		t.Errorf("super-prefix routing unstable")
	}
}

// mixedEvents builds a deterministic stream touching every classification
// branch: benign announcements, exact/sub/squat hijacks, withdrawals, and
// unrelated prefixes.
func mixedEvents(n int) []feedtypes.Event {
	sources := []string{"ris", "bgpmon", "periscope"}
	evs := make([]feedtypes.Event, 0, n)
	for i := 0; i < n; i++ {
		vp := bgp.ASN(100 + i%7)
		at := time.Duration(i) * time.Millisecond
		ev := feedtypes.Event{
			Source:       sources[i%len(sources)],
			Collector:    "c0",
			VantagePoint: vp,
			Kind:         feedtypes.Announce,
			SeenAt:       at,
			EmittedAt:    at,
		}
		switch i % 11 {
		case 0: // benign: owned prefix from the legit origin
			ev.Prefix = prefix.MustParse("10.0.0.0/23")
			ev.Path = []bgp.ASN{vp, 1001, 61000}
		case 1: // exact-origin hijack
			ev.Prefix = prefix.MustParse("10.1.0.0/22")
			ev.Path = []bgp.ASN{vp, 1001, bgp.ASN(660 + i%5)}
		case 2: // sub-prefix hijack
			ev.Prefix = prefix.MustParse("10.0.1.0/24")
			ev.Path = []bgp.ASN{vp, 1002, bgp.ASN(660 + i%5)}
		case 3: // squat
			ev.Prefix = prefix.MustParse("192.0.0.0/16")
			ev.Path = []bgp.ASN{vp, 1003, bgp.ASN(660 + i%5)}
		case 4: // withdrawal — detector ignores, monitor folds
			ev.Kind = feedtypes.Withdraw
			ev.Prefix = prefix.MustParse("10.0.0.0/23")
		default: // unrelated prefixes
			ev.Prefix = prefix.New(prefix.AddrFrom4(uint32(172<<24)|uint32(i)<<8), 24)
			ev.Path = []bgp.ASN{vp, 2000, bgp.ASN(3000 + i%17)}
		}
		evs = append(evs, ev)
	}
	return evs
}

// TestPipelineMatchesSerial is the equivalence oracle: the pipeline must
// produce exactly the serial path's alerts, per-source counters, and
// monitor state for the same ordered stream.
func TestPipelineMatchesSerial(t *testing.T) {
	evs := mixedEvents(500)

	serialDet := NewDetector(multiOwnedConfig())
	serialMon := NewMonitor(multiOwnedConfig())
	for _, ev := range evs {
		serialDet.Process(ev)
		serialMon.Process(ev)
	}

	pipeDet := NewDetector(multiOwnedConfig())
	pipeMon := NewMonitor(multiOwnedConfig())
	p := NewPipeline(pipeDet, pipeMon, PipelineConfig{Shards: 4, QueueDepth: 8})
	for i := 0; i < len(evs); i += 37 { // uneven batch boundaries
		end := min(i+37, len(evs))
		p.SubmitWait(batchOf(evs[i:end]))
	}
	p.Close()

	if got, want := pipeDet.Alerts(), serialDet.Alerts(); !reflect.DeepEqual(got, want) {
		t.Errorf("alerts diverge:\n pipeline %+v\n serial   %+v", got, want)
	}
	if got, want := pipeDet.EventsBySource(), serialDet.EventsBySource(); !reflect.DeepEqual(got, want) {
		t.Errorf("per-source counts diverge: pipeline %v serial %v", got, want)
	}
	if got, want := pipeMon.History(), serialMon.History(); !reflect.DeepEqual(got, want) {
		t.Errorf("monitor history diverges: %d vs %d samples", len(got), len(want))
	}
	if got, want := pipeMon.VPOrigins(), serialMon.VPOrigins(); !reflect.DeepEqual(got, want) {
		t.Errorf("VP origins diverge: pipeline %v serial %v", got, want)
	}
}

// TestPipelineAlertHandlerOrder checks that handlers fire on the sink in
// submission order, first occurrence only (dedup), exactly as serially.
func TestPipelineAlertHandlerOrder(t *testing.T) {
	det := NewDetector(multiOwnedConfig())
	var mu sync.Mutex
	var order []string
	det.OnAlert(func(a Alert) {
		mu.Lock()
		order = append(order, a.Key())
		mu.Unlock()
	})
	p := NewPipeline(det, nil, PipelineConfig{Shards: 4})

	mk := func(pfx string, origin bgp.ASN) feedtypes.Event {
		return feedtypes.Event{
			Source: "ris", VantagePoint: 1, Kind: feedtypes.Announce,
			Prefix: prefix.MustParse(pfx), Path: []bgp.ASN{1, origin},
		}
	}
	batch := []feedtypes.Event{
		mk("10.0.0.0/23", 666),  // alert 1
		mk("10.1.0.0/22", 777),  // alert 2
		mk("10.0.0.0/23", 666),  // dup of 1
		mk("192.0.2.0/24", 888), // alert 3
	}
	p.SubmitWait(batchOf(batch))
	// SubmitWait returns only once the batch is applied: its alerts are
	// already visible.
	if got := len(det.Alerts()); got != 3 {
		t.Fatalf("%d alerts visible when SubmitWait returned, want 3", got)
	}
	p.SubmitWait(batchOf(batch)) // all dups now
	p.Close()

	mu.Lock()
	defer mu.Unlock()
	if len(order) != 3 {
		t.Fatalf("handler fired %d times, want 3: %v", len(order), order)
	}
	want := []string{
		Alert{Type: AlertExactOrigin, Prefix: prefix.MustParse("10.0.0.0/23"), Origin: 666}.Key(),
		Alert{Type: AlertExactOrigin, Prefix: prefix.MustParse("10.1.0.0/22"), Origin: 777}.Key(),
		Alert{Type: AlertExactOrigin, Prefix: prefix.MustParse("192.0.2.0/24"), Origin: 888}.Key(),
	}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("handler order %v, want %v", order, want)
	}
}

// TestPipelineCloseFlushesPending: batches already submitted when Close is
// called must still be classified and applied.
func TestPipelineCloseFlushesPending(t *testing.T) {
	det := NewDetector(multiOwnedConfig())
	p := NewPipeline(det, nil, PipelineConfig{Shards: 2, QueueDepth: 4})
	evs := mixedEvents(300)
	for i := 0; i < len(evs); i += 10 {
		p.Submit(batchOf(evs[i : i+10])) // async: no waiting
	}
	p.Close()

	snap := p.Snapshot()
	if snap.Submitted != 30 || snap.Applied != 30 {
		t.Fatalf("submitted %d applied %d, want 30/30", snap.Submitted, snap.Applied)
	}
	if snap.Events != int64(len(evs)) {
		t.Fatalf("events %d, want %d", snap.Events, len(evs))
	}
	// Serial reference for the same stream.
	ref := NewDetector(multiOwnedConfig())
	ref.ProcessBatch(evs)
	if got, want := len(det.Alerts()), len(ref.Alerts()); got != want {
		t.Fatalf("alerts after close: %d, want %d", got, want)
	}
	// Submission after Close is dropped, not processed or deadlocked.
	p.Submit(batchOf(evs[:10]))
	if p.Snapshot().Submitted != 30 {
		t.Fatal("submit after close was accepted")
	}
}

// TestPipelineStress drives ≥10k events from concurrent submitters through
// a small-queue pipeline (forcing backpressure) under -race, and checks
// conservation: every event counted, totals matching a serial reference.
func TestPipelineStress(t *testing.T) {
	const (
		submitters = 8
		perSub     = 1500 // 12000 events total
		batchSize  = 25
	)
	cfg := multiOwnedConfig()
	det := NewDetector(cfg)
	mon := NewMonitor(cfg)
	p := NewPipeline(det, mon, PipelineConfig{Shards: 4, QueueDepth: 2})

	streams := make([][]feedtypes.Event, submitters)
	for s := range streams {
		evs := mixedEvents(perSub)
		// Distinct sources and VPs per submitter so cross-stream totals are
		// order-independent.
		for i := range evs {
			evs[i].Source = fmt.Sprintf("src-%d", s)
			evs[i].VantagePoint = bgp.ASN(1000*(s+1)) + evs[i].VantagePoint
			if len(evs[i].Path) > 0 {
				evs[i].Path[0] = evs[i].VantagePoint
			}
		}
		streams[s] = evs
	}

	var wg sync.WaitGroup
	for s := 0; s < submitters; s++ {
		wg.Add(1)
		go func(evs []feedtypes.Event) {
			defer wg.Done()
			for i := 0; i < len(evs); i += batchSize {
				p.Submit(batchOf(evs[i : i+batchSize]))
			}
		}(streams[s])
	}
	wg.Wait()
	p.Flush()

	snap := p.Snapshot()
	if snap.Events != submitters*perSub {
		t.Fatalf("ingested %d events, want %d", snap.Events, submitters*perSub)
	}
	if snap.Submitted != snap.Applied {
		t.Fatalf("flush incomplete: submitted %d applied %d", snap.Submitted, snap.Applied)
	}
	var shardEvents int64
	for _, sh := range snap.Shards {
		shardEvents += sh.Events
	}
	if shardEvents != snap.Events {
		t.Fatalf("shards classified %d events, ingested %d", shardEvents, snap.Events)
	}
	p.Close()

	// Per-source counts must match a serial run of each stream.
	want := map[string]int{}
	for _, evs := range streams {
		ref := NewDetector(multiOwnedConfig())
		ref.ProcessBatch(evs)
		for src, n := range ref.EventsBySource() {
			want[src] += n
		}
	}
	if got := det.EventsBySource(); !reflect.DeepEqual(got, want) {
		t.Fatalf("per-source counts diverge:\n got  %v\n want %v", got, want)
	}
	// Alert *set* must match the union (order across streams is unordered).
	wantKeys := map[string]bool{}
	for _, evs := range streams {
		ref := NewDetector(multiOwnedConfig())
		ref.ProcessBatch(evs)
		for _, a := range ref.Alerts() {
			wantKeys[a.Key()] = true
		}
	}
	gotKeys := map[string]bool{}
	for _, a := range det.Alerts() {
		gotKeys[a.Key()] = true
	}
	if !reflect.DeepEqual(gotKeys, wantKeys) {
		t.Fatalf("alert sets diverge: got %d want %d", len(gotKeys), len(wantKeys))
	}
}

// poisoned reports whether a released batch's storage was overwritten
// with the pool's sentinels.
func poisoned(ev feedtypes.Event) bool {
	return ev.Source == "poisoned" && ev.Prefix == feedtypes.PoisonPrefix
}

// TestPipelineOwnsBatchUntilApplied: Submit takes the batch over. The
// sink still reads it intact while applying it, the pipeline releases
// it before SubmitWait returns, and nothing the sink kept — alert
// evidence, monitor state — points into the released storage.
func TestPipelineOwnsBatchUntilApplied(t *testing.T) {
	det := NewDetector(multiOwnedConfig())
	mon := NewMonitor(multiOwnedConfig())
	p := NewPipeline(det, mon, PipelineConfig{Shards: 2})
	defer p.Close()

	hijack := feedtypes.Event{
		Source: "ris", Collector: "rrc00", VantagePoint: 1, Kind: feedtypes.Announce,
		Prefix: prefix.MustParse("10.0.0.0/24"), Path: []bgp.ASN{1, 2, 666},
	}
	b := batchOf([]feedtypes.Event{hijack, hijack})
	held := b.Events // what an illegal retainer would still see
	var atApply []feedtypes.Event
	det.OnAlert(func(Alert) { atApply = feedtypes.CopyEvents(nil, held) })
	p.SubmitWait(b)

	if len(atApply) != 2 || atApply[0].Prefix != hijack.Prefix || atApply[0].Path[2] != 666 {
		t.Fatalf("batch not intact while the sink applied it: %+v", atApply)
	}
	if !poisoned(held[0]) || !poisoned(held[1]) {
		t.Fatalf("batch not released when SubmitWait returned: %+v", held)
	}
	alerts := det.Alerts()
	if len(alerts) != 1 {
		t.Fatalf("alerts = %+v", alerts)
	}
	if ev := alerts[0].Evidence; ev.Prefix != hijack.Prefix || ev.Source != "ris" || len(ev.Path) != 3 || ev.Path[2] != 666 {
		t.Fatalf("alert evidence aliases released storage: %+v", ev)
	}
	if got := mon.VPOrigins()[1]; len(got) == 0 || got[0] != 666 {
		t.Fatalf("monitor state after release = %v, want origin 666", got)
	}
}

// TestPipelineReleasesDroppedBatches: batches the pipeline does not
// ingest — empty ones, and any submitted after Close — are released at
// once rather than leaked. (A second release would panic.)
func TestPipelineReleasesDroppedBatches(t *testing.T) {
	p := NewPipeline(NewDetector(multiOwnedConfig()), nil, PipelineConfig{Shards: 2})

	empty := batchOf(mixedEvents(3))
	held := empty.Events
	empty.Reset()
	p.Submit(empty)
	if !poisoned(held[0]) {
		t.Fatal("empty batch not released")
	}

	p.Close()
	late := batchOf(mixedEvents(3))
	held = late.Events
	p.Submit(late)
	if !poisoned(held[0]) {
		t.Fatal("batch submitted after Close not released")
	}
	if got := p.Snapshot().Submitted; got != 0 {
		t.Fatalf("dropped batches counted as submitted: %d", got)
	}
}
