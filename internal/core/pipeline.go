package core

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"artemis/internal/feeds/feedtypes"
	"artemis/internal/prefix"
	"artemis/internal/ring"
	"artemis/internal/stats"
)

// Pipeline is the sharded, batched detection data path. Feed batches are
// ingested whole, fanned out to N worker shards keyed by the event's
// matched owned prefix (trie LPM, so every event for the same slice of
// owned space lands on the same shard), classified concurrently by the
// pure detection stage, and re-aggregated by a single sink that applies
// results in submission order. Because dedup, alert handlers and the
// monitor all run on the sink, the pipeline's observable behavior is
// identical to the serial Detector/Monitor path — only the per-event
// classification work is parallel.
//
// The pipeline is natively multi-tenant (NewPipelineTable): one shared
// hot path classifies each event once per matched tenant, under that
// tenant's own config snapshot, committing to that tenant's detector and
// monitor. Per-event tenant matches live in pooled job arenas, so tenant
// fan-out adds no allocations. NewPipeline is the single-tenant special
// case; its observable behavior is unchanged.
//
// The steady-state path is allocation-free (docs/PERFORMANCE.md): jobs
// are recycled through a bounded free list, each job takes ownership of
// the submitted pooled batch instead of copying it and releases it once
// the sink has applied it, the per-shard queues are fixed-size SPSC rings
// (internal/ring), and the router amortizes trie lookups over runs of
// equal prefixes by sorting each batch by identity hash.
//
// Backpressure is explicit end to end: shard rings and the completion
// channel are bounded, so when the sink (or a slow alert handler) falls
// behind, Submit blocks instead of buffering without limit — the feed's
// transport is the buffer, as in any line-rate ingest design.
//
// Alert handlers run on the sink goroutine. A handler must not call
// Submit/SubmitWait on its own pipeline (it would wait on the goroutine it
// runs on); schedule follow-up work instead, as the mitigation controller
// does.
type Pipeline struct {
	cfg PipelineConfig

	// table is the policy snapshot the router currently routes under: the
	// shared owned-prefix trie (prefix → owning tenants) plus each
	// tenant's config/detector/monitor. It is written only under life held
	// exclusively (Reconfigure/ReconfigureTable) and read under life held
	// shared (submit), so every job is routed against exactly one
	// snapshot, which the job then carries to the shards.
	table *PolicyTable

	shards []*shard
	done   chan *batchJob

	// jobs is the free list of batchJobs (and all their backing arrays);
	// the sink returns each job after applying it. Unlike a sync.Pool it
	// keeps its jobs across garbage collections, so a burst's jobs do not
	// have to regrow their arenas. Its capacity bounds what it retains.
	jobs chan *batchJob

	// life guards the submit/close race: submitters hold it shared while
	// assigning a sequence number and enqueueing, Close takes it exclusive
	// to flip closed and close the shard queues. A sequence number is
	// therefore only ever assigned to a job that is fully enqueued, which
	// the sink's in-order application depends on.
	life    sync.RWMutex
	closed  bool
	nextSeq atomic.Uint64

	// applyMu/applyCond publish sink progress (the applied counter) to
	// Flush waiters.
	applyMu   sync.Mutex
	applyCond *sync.Cond

	workers  sync.WaitGroup
	sinkDone chan struct{}

	submitted, applied, events, reconfigs stats.Counter
	// sinkApply is the distribution of the sink's per-batch apply time
	// (alert commit + handler dispatch + monitor fold).
	sinkApply *stats.Histogram
}

// PipelineConfig tunes the pipeline.
type PipelineConfig struct {
	// Shards is the number of classification workers (default GOMAXPROCS).
	Shards int
	// QueueDepth is the per-shard bound on waiting sub-batches before
	// Submit blocks (default 128; rounded up to a power of two by the
	// ring buffer).
	QueueDepth int
}

func (c PipelineConfig) withDefaults() PipelineConfig {
	if c.Shards <= 0 {
		c.Shards = runtime.GOMAXPROCS(0)
	}
	if c.Shards > 256 {
		c.Shards = 256 // the scatter stage stores shard ids in a byte
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 128
	}
	return c
}

// shard is one classification worker's queue and counters. The task
// queue is a fixed-size ring: the worker is its single consumer, and
// submitters serialize on pushMu to form its single logical producer
// (ring.Ring's SPSC contract).
type shard struct {
	pushMu  sync.Mutex
	in      *ring.Ring[shardTask]
	events  stats.Counter
	batches stats.Counter
	// service is the distribution of per-sub-batch classification time.
	service *stats.Histogram
}

// shardTask is one shard's slice of a submitted batch: the indices of the
// job's events this shard classifies.
type shardTask struct {
	job   *batchJob
	shard int
	idxs  []int32
}

// batchJob is one submitted batch in flight. The router pre-resolves each
// event's per-tenant owned-space matches into a flat match arena, shards
// classify their index slices once per match, and per-shard output slots
// keep everything single-writer — no locks anywhere on the classification
// path. Every slice below is a reused backing array: jobs cycle through
// Pipeline.jobs, so at steady state a submission allocates nothing, no
// matter how many tenants each event fans out to.
type batchJob struct {
	seq uint64
	// table is the policy snapshot the job was routed under; shards
	// classify with it (not with live state), so a reconfiguration
	// concurrent with in-flight batches cannot mix two snapshots within
	// one batch.
	table *PolicyTable
	// swap, when non-nil, marks a reconfiguration barrier: the job carries
	// no events and the sink runs swap() at the job's sequence position.
	swap func()
	// batch is the submitted batch — the events the job routes and
	// classifies — owned by the job from Submit until finish releases it
	// after the sink applied it.
	batch *feedtypes.Batch
	// matches is the flat arena of per-event tenant matches: event i's
	// matches are matches[matchOff[i] : matchOff[i]+matchN[i]], at most
	// one per tenant (that tenant's LPM, or its config-order squat).
	// Events with equal prefixes share one arena range.
	matches  []eventMatch
	matchOff []int32
	matchN   []int32
	// drops is the batch's per-tenant classification-quota drop tally.
	drops []tenantDrop
	// mc holds the router's reusable trie-walk callbacks (closures are
	// created once per pooled job, never per event).
	mc matchCollector
	// keys/shardOf/sizes/offsets/fill/backing are the router's scratch:
	// keys sorts the batch by prefix identity for run-amortized trie
	// walks, and the rest is the counting-sort scatter of event indices
	// to shards.
	keys    []uint64
	shardOf []uint8
	sizes   []int32
	offsets []int32
	fill    []int32
	backing []int32
	// counts[s] is shard s's per-(tenant, source) event tally; alerts[s]
	// its hijack candidates in index order. At most one task per shard per
	// job, so slots are single-writer. alertPos[s] is the sink's merge
	// cursor.
	counts    [][]tenantTally
	alerts    [][]indexedAlert
	alertPos  []int32
	remaining atomic.Int32
	// wait, when non-nil, is closed by the sink once the job is applied.
	// Waiters capture the channel before handing the job over — after
	// close, the sink recycles the job immediately.
	wait chan struct{}
}

// eventMatch is one (event, tenant) routing result: which tenant matched,
// which of its owned prefixes (index into that tenant's
// Config.OwnedPrefixes), and the relation (always non-zero in the arena).
type eventMatch struct {
	tenant   int32
	ownedIdx int32
	rel      uint8
}

// tenantTally is one (tenant, source) event count within a batch — the
// allocation-free alternative to nested maps for the pipeline's per-shard
// tallies. Batches carry a handful of distinct (tenant, source) pairs, so
// the linear scan beats a map and reuses the job's backing array.
type tenantTally struct {
	tenant int32
	src    string
	n      int
}

// tallyTenant bumps (tenant, src)'s count, appending a new entry (into
// reused capacity, at steady state) for a pair not yet seen in this batch.
func tallyTenant(tallies []tenantTally, tenant int32, src string) []tenantTally {
	for i := range tallies {
		if tallies[i].tenant == tenant && tallies[i].src == src {
			tallies[i].n++
			return tallies
		}
	}
	return append(tallies, tenantTally{tenant: tenant, src: src, n: 1})
}

// tenantDrop is one tenant's quota-drop count within a batch.
type tenantDrop struct {
	tenant int32
	n      int64
}

func tallyDrop(drops []tenantDrop, tenant int32) []tenantDrop {
	for i := range drops {
		if drops[i].tenant == tenant {
			drops[i].n++
			return drops
		}
	}
	return append(drops, tenantDrop{tenant: tenant, n: 1})
}

// matchCollector is the router's reusable trie-walk state. Its callback
// closures are created once per pooled job (init), never per event —
// closure creation allocates, and the router runs for every event of
// every batch.
type matchCollector struct {
	job    *batchJob
	pfx    prefix.Prefix
	base   int32
	lpmEnd int32
	supFn  func(prefix.Prefix, []ownedRef) bool
	covFn  func(prefix.Prefix, []ownedRef) bool
}

func (c *matchCollector) init(j *batchJob) {
	if c.supFn == nil {
		c.job = j
		c.supFn = c.visitSupernet
		c.covFn = c.visitCovered
	}
}

// visitSupernet records q's owners as exact/sub-prefix matches. Supernets
// arrive shortest-first, so replacing a tenant's earlier entry implements
// per-tenant LPM over the shared trie: the last supernet a tenant owns on
// the event prefix's descent path is that tenant's longest match.
func (c *matchCollector) visitSupernet(q prefix.Prefix, refs []ownedRef) bool {
	j := c.job
	rel := uint8(AlertSubPrefix)
	if q == c.pfx {
		rel = uint8(AlertExactOrigin)
	}
refs:
	for _, r := range refs {
		for i := c.base; i < int32(len(j.matches)); i++ {
			if j.matches[i].tenant == r.tenant {
				j.matches[i] = eventMatch{tenant: r.tenant, ownedIdx: r.ownedIdx, rel: rel}
				continue refs
			}
		}
		j.matches = append(j.matches, eventMatch{tenant: r.tenant, ownedIdx: r.ownedIdx, rel: rel})
	}
	return true
}

// visitCovered records q's owners as squat candidates (the event prefix
// covers q). A tenant already holding an exact/sub entry keeps it — LPM
// beats squat, as in the single-tenant router. Among a tenant's several
// covered prefixes the lowest config index wins, matching the serial
// config-order scan.
func (c *matchCollector) visitCovered(q prefix.Prefix, refs []ownedRef) bool {
	if q == c.pfx {
		return true // exact ownership was already handled by the supernet pass
	}
	j := c.job
refs:
	for _, r := range refs {
		for i := c.base; i < c.lpmEnd; i++ {
			if j.matches[i].tenant == r.tenant {
				continue refs
			}
		}
		for i := c.lpmEnd; i < int32(len(j.matches)); i++ {
			if j.matches[i].tenant == r.tenant {
				if r.ownedIdx < j.matches[i].ownedIdx {
					j.matches[i].ownedIdx = r.ownedIdx
				}
				continue refs
			}
		}
		j.matches = append(j.matches, eventMatch{tenant: r.tenant, ownedIdx: r.ownedIdx, rel: uint8(AlertSquat)})
	}
	return true
}

// reset prepares a free job for reuse, keeping every backing array.
func (j *batchJob) reset(nshards int) {
	j.seq = 0
	j.table = nil
	j.swap = nil
	j.wait = nil
	j.batch = nil
	j.matches = j.matches[:0]
	j.matchOff = j.matchOff[:0]
	j.matchN = j.matchN[:0]
	j.drops = j.drops[:0]
	j.keys = j.keys[:0]
	j.shardOf = j.shardOf[:0]
	j.remaining.Store(0)
	j.sizes = resizeInt32(j.sizes, nshards)
	j.offsets = resizeInt32(j.offsets, nshards)
	j.fill = resizeInt32(j.fill, nshards)
	j.alertPos = resizeInt32(j.alertPos, nshards)
	for len(j.counts) < nshards {
		j.counts = append(j.counts, nil)
	}
	j.counts = j.counts[:nshards]
	for i := range j.counts {
		// Truncate, keep capacity: a shard with no task this job must not
		// contribute its previous job's tallies. Clear first so the pool
		// does not pin the tallies' source strings.
		clear(j.counts[i])
		j.counts[i] = j.counts[i][:0]
	}
	for len(j.alerts) < nshards {
		j.alerts = append(j.alerts, nil)
	}
	j.alerts = j.alerts[:nshards]
	for i := range j.alerts {
		clear(j.alerts[i]) // drop Alert references (source strings, paths)
		j.alerts[i] = j.alerts[i][:0]
	}
}

// resizeInt32 returns s with length n and every element zeroed.
func resizeInt32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// indexedAlert tags a candidate alert with its event's position in the
// batch (so the sink can restore submission order across shards) and the
// tenant whose detector it commits to.
type indexedAlert struct {
	idx    int32
	tenant int32
	alert  Alert
}

// NewPipeline builds and starts a single-tenant pipeline: the classic
// shape, one (detector, monitor, config) triple. mon may be nil for a
// detection-only pipeline. Close releases the goroutines.
func NewPipeline(det *Detector, mon *Monitor, cfg PipelineConfig) *Pipeline {
	return NewPipelineTable(newSingleTable(det.Config(), det, mon, nil), cfg)
}

// NewPipelineTable builds and starts a pipeline routing under a
// multi-tenant policy table: one shared hot path, each event classified
// once per matched tenant under that tenant's own config, committing to
// that tenant's detector and monitor. Close releases the goroutines.
func NewPipelineTable(table *PolicyTable, cfg PipelineConfig) *Pipeline {
	cfg = cfg.withDefaults()
	p := &Pipeline{
		table:     table,
		cfg:       cfg,
		done:      make(chan *batchJob, 4*cfg.Shards+16),
		sinkDone:  make(chan struct{}),
		sinkApply: stats.NewHistogram(),
	}
	// Sized to what the shard rings and the completion channel hold, so
	// the list covers the bursts the pipeline admits; a job returned to a
	// full list is left to the garbage collector.
	p.jobs = make(chan *batchJob, cfg.Shards*cfg.QueueDepth+cap(p.done))
	p.applyCond = sync.NewCond(&p.applyMu)
	for i := 0; i < cfg.Shards; i++ {
		s := &shard{in: ring.New[shardTask](cfg.QueueDepth), service: stats.NewHistogram()}
		p.shards = append(p.shards, s)
		p.workers.Add(1)
		go p.work(i, s)
	}
	go p.sink()
	return p
}

// Table returns the active policy snapshot. Treat it as immutable: derive
// the next table from it and install it with ReconfigureTable.
func (p *Pipeline) Table() *PolicyTable {
	p.life.RLock()
	defer p.life.RUnlock()
	return p.table
}

// hashPrefix is FNV-1a over the full dual-stack prefix identity (128
// address bits, family, length).
func hashPrefix(pfx prefix.Prefix) int {
	h := prefix.FoldIdentity(fnvOffset, pfx)
	// Finalize so the low bits depend on every field.
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return int(h & 0x7fffffff)
}

const fnvOffset = 1469598103934665603

// routeKeyIdxBits is how many low bits of a routing sort key carry the
// event's batch index; the identity hash keeps the top 44 bits. A hash
// collision between distinct prefixes only merges their sort runs — the
// run walk re-checks actual prefix equality before reusing a result.
const routeKeyIdxBits = 20

// routeBatch fills job.matches/matchOff/matchN/shardOf for every event,
// amortizing the trie over runs of equal prefixes: the batch is sorted by
// prefix identity hash (one uint64 sort key per event, index packed in
// the low bits), and each run of equal prefixes costs a single pair of
// trie walks — the later events of a run alias the head's arena range.
// Real feed batches repeat prefixes heavily — a path-hunting burst or a
// flap emits many updates for one prefix in the same flush — so the
// per-batch trie work shrinks from O(events) to O(distinct prefixes).
// Called under p.life held shared.
func (p *Pipeline) routeBatch(job *batchJob, nshards int) {
	n := len(job.batch.Events)
	job.matchOff = append(job.matchOff[:0], make([]int32, n)...)
	job.matchN = append(job.matchN[:0], make([]int32, n)...)
	job.shardOf = append(job.shardOf[:0], make([]uint8, n)...)
	if n >= 1<<routeKeyIdxBits || job.table.quotas {
		// Quota enforcement spends one token per (event, tenant), so equal
		// prefixes cannot share a routing result; batches too large to pack
		// indices into the sort key (never hit by real feeds: flushes are
		// bounded at a few hundred events) route event-by-event too.
		for i := range job.batch.Events {
			p.routeOne(job, i, nshards)
		}
		return
	}
	job.keys = job.keys[:0]
	for i := range job.batch.Events {
		k := prefix.FoldIdentity(fnvOffset, job.batch.Events[i].Prefix)
		job.keys = append(job.keys, k&^uint64(1<<routeKeyIdxBits-1)|uint64(i))
	}
	slices.Sort(job.keys)
	for a := 0; a < n; {
		bEnd := a + 1
		for bEnd < n && job.keys[bEnd]&^uint64(1<<routeKeyIdxBits-1) == job.keys[a]&^uint64(1<<routeKeyIdxBits-1) {
			bEnd++
		}
		head := int(job.keys[a] & (1<<routeKeyIdxBits - 1))
		p.routeOne(job, head, nshards)
		headPfx := job.batch.Events[head].Prefix
		for k := a + 1; k < bEnd; k++ {
			i := int(job.keys[k] & (1<<routeKeyIdxBits - 1))
			if job.batch.Events[i].Prefix == headPfx {
				job.matchOff[i] = job.matchOff[head]
				job.matchN[i] = job.matchN[head]
				job.shardOf[i] = job.shardOf[head]
			} else {
				// 44-bit hash collision between distinct prefixes: route
				// this event on its own.
				p.routeOne(job, i, nshards)
			}
		}
		a = bEnd
	}
}

// routeOne resolves one event's per-tenant matches (one supernet walk for
// exact/sub relations with per-tenant LPM, one covered walk for squats)
// and its shard, recording everything in the job's arenas. With quotas
// active it also spends each matched tenant's token — at route time,
// under the submit lock, so drops are deterministic in submission order.
func (p *Pipeline) routeOne(job *batchJob, i, nshards int) {
	mc := &job.mc
	mc.init(job)
	mc.pfx = job.batch.Events[i].Prefix
	mc.base = int32(len(job.matches))
	t := job.table
	t.trie.Supernets(mc.pfx, mc.supFn)
	mc.lpmEnd = int32(len(job.matches))
	t.trie.CoveredBy(mc.pfx, mc.covFn)
	// Shard choice: the first matched owner's prefix index, so every event
	// for the same slice of owned space lands on the same shard (and the
	// single-tenant assignment is exactly the classic ownedIdx%shards);
	// unmatched events hash over all shards. Decided before the quota
	// filter, so routing stays a pure function of prefix and snapshot.
	if int32(len(job.matches)) > mc.base {
		job.shardOf[i] = uint8(int(job.matches[mc.base].ownedIdx) % nshards)
	} else {
		job.shardOf[i] = uint8(hashPrefix(mc.pfx) % nshards)
	}
	if t.quotas {
		kept := mc.base
		now := job.batch.Events[i].EmittedAt
		for k := mc.base; k < int32(len(job.matches)); k++ {
			m := job.matches[k]
			e := &t.entries[m.tenant]
			if perSec := e.cfg.MaxEventsPerSecond; perSec > 0 && !e.rt.allow(now, perSec) {
				job.drops = tallyDrop(job.drops, m.tenant)
				continue
			}
			job.matches[kept] = m
			kept++
		}
		job.matches = job.matches[:kept]
	}
	job.matchOff[i] = mc.base
	job.matchN[i] = int32(len(job.matches)) - mc.base
}

// Submit ingests one batch asynchronously and takes ownership of it: the
// pipeline reads the batch until its sink has applied it, then releases
// it (an empty batch, or one submitted after Close, is released at
// once). The caller must not touch b after Submit. Submit blocks only
// for backpressure (a full shard ring). Batches submitted from one
// goroutine are applied in submission order; no order is defined across
// goroutines.
func (p *Pipeline) Submit(b *feedtypes.Batch) {
	p.submit(b, false)
}

// SubmitWait ingests one batch and returns after the sink has fully
// applied it — alerts committed, handlers run, monitor folded — and
// released it. It takes ownership of b like Submit.
func (p *Pipeline) SubmitWait(b *feedtypes.Batch) {
	p.submit(b, true)
}

// getJob takes a job from the free list, or makes one.
func (p *Pipeline) getJob() *batchJob {
	select {
	case j := <-p.jobs:
		return j
	default:
		return new(batchJob)
	}
}

func (p *Pipeline) submit(b *feedtypes.Batch, wait bool) {
	if len(b.Events) == 0 {
		b.Release()
		return
	}
	nshards := len(p.shards)
	job := p.getJob()
	job.reset(nshards)
	job.batch = b
	var waitCh chan struct{}
	if wait {
		waitCh = make(chan struct{})
		job.wait = waitCh
	}
	// Routing, sequencing and shard enqueue all happen under the shared
	// life lock: a Reconfigure (which holds it exclusively) therefore
	// observes every job either fully routed-and-sequenced under the old
	// snapshot or not started — no batch straddles a config swap.
	p.life.RLock()
	if p.closed {
		p.life.RUnlock()
		// Shut down: the batch is dropped, as a detached source's would be.
		p.putJob(job)
		return
	}
	job.table = p.table
	// Route every event once per distinct prefix (routeBatch), then
	// scatter index slices to shards with a counting sort over one
	// backing array (no per-shard growth).
	p.routeBatch(job, nshards)
	for _, s := range job.shardOf {
		job.sizes[s]++
	}
	job.backing = append(job.backing[:0], make([]int32, len(b.Events))...)
	tasks := 0
	var off int32
	for s := 0; s < nshards; s++ {
		job.offsets[s] = off
		job.fill[s] = off
		off += job.sizes[s]
		if job.sizes[s] > 0 {
			tasks++
		}
	}
	for i := range job.shardOf {
		s := job.shardOf[i]
		job.backing[job.fill[s]] = int32(i)
		job.fill[s]++
	}
	// The +1 is the submitter's own hold: without it, a shard could finish
	// the job — and the sink recycle it — while this loop still reads
	// job.sizes for the remaining shards.
	job.remaining.Store(int32(tasks) + 1)

	job.seq = p.nextSeq.Add(1) - 1
	p.submitted.Inc()
	p.events.Add(int64(len(b.Events)))
	for s := 0; s < nshards; s++ {
		if job.sizes[s] > 0 {
			t := shardTask{
				job:   job,
				shard: s,
				idxs:  job.backing[job.offsets[s] : job.offsets[s]+job.sizes[s]],
			}
			sh := p.shards[s]
			// Serialize concurrent submitters into the ring's single
			// logical producer. Push blocks for backpressure; the ring is
			// only closed under the exclusive life lock, which no pusher
			// holds, so a blocked push always drains.
			sh.pushMu.Lock()
			sh.in.Push(t)
			sh.pushMu.Unlock()
		}
	}
	if job.remaining.Add(-1) == 0 {
		p.done <- job
	}
	p.life.RUnlock()
	if wait {
		<-waitCh
	}
}

// work is one shard's loop: classify each assigned event (reusing the
// router's owned-space match), tally sources, and hand the job to the sink
// once the last shard finishes it.
func (p *Pipeline) work(idx int, s *shard) {
	defer p.workers.Done()
	for {
		t, ok := s.in.Pop()
		if !ok {
			return
		}
		start := time.Now()
		// Classify with the job's policy snapshot — the one the router
		// resolved the matches against — not live state, which a concurrent
		// Reconfigure may already have advanced. Each event is classified
		// once per matched tenant, under that tenant's own config.
		table := t.job.table
		single := table.single()
		counts := t.job.counts[t.shard][:0]
		alerts := t.job.alerts[t.shard][:0]
		for _, i := range t.idxs {
			ev := &t.job.batch.Events[i]
			off, n := t.job.matchOff[i], t.job.matchN[i]
			if n == 0 {
				if single {
					// Single-tenant compat: an unmatched well-formed
					// announcement still tallies per source, exactly as the
					// serial detector counts every event it is shown.
					if _, counted, _ := table.entries[0].cfg.classifyRouted(ev, prefix.Prefix{}, 0); counted {
						counts = tallyTenant(counts, 0, ev.Source)
					}
				}
				continue
			}
			for _, m := range t.job.matches[off : off+n] {
				e := &table.entries[m.tenant]
				alert, counted, isAlert := e.cfg.classifyRouted(ev, e.cfg.OwnedPrefixes[m.ownedIdx], AlertType(m.rel))
				if counted {
					counts = tallyTenant(counts, m.tenant, ev.Source)
				}
				if isAlert {
					alerts = append(alerts, indexedAlert{idx: i, tenant: m.tenant, alert: alert})
				}
			}
		}
		t.job.counts[t.shard] = counts
		t.job.alerts[t.shard] = alerts
		s.events.Add(int64(len(t.idxs)))
		s.batches.Inc()
		s.service.Observe(time.Since(start))
		if t.job.remaining.Add(-1) == 0 {
			p.done <- t.job
		}
	}
}

// sink re-establishes submission order (shards complete jobs in any order)
// and applies each job exactly as the serial path would have.
func (p *Pipeline) sink() {
	defer close(p.sinkDone)
	reorder := make(map[uint64]*batchJob)
	var next uint64
	for job := range p.done {
		reorder[job.seq] = job
		for {
			j, ok := reorder[next]
			if !ok {
				break
			}
			delete(reorder, next)
			next++
			p.apply(j)
		}
	}
}

func (p *Pipeline) apply(j *batchJob) {
	if j.swap != nil {
		// Reconfiguration barrier: runs at its sequence position, so every
		// batch sequenced before it has been fully applied (alerts
		// committed, monitor folded) and none sequenced after it has.
		j.swap()
		p.finish(j)
		return
	}
	start := time.Now()
	table := j.table
	for _, counts := range j.counts {
		for _, t := range counts {
			table.entries[t.tenant].det.addSourceCount(t.src, t.n)
		}
	}
	// Commit alerts in event order: each shard's list is ascending, so an
	// N-way min-merge (cursors in j.alertPos, no reslicing) restores the
	// batch's submission order. One event's alerts live on one shard, in
	// match order, so a multi-tenant fan-out commits adjacently.
	for {
		best, bestShard := int32(-1), -1
		for s := range j.alerts {
			if pos := j.alertPos[s]; int(pos) < len(j.alerts[s]) {
				if idx := j.alerts[s][pos].idx; best < 0 || idx < best {
					best, bestShard = idx, s
				}
			}
		}
		if bestShard < 0 {
			break
		}
		ia := &j.alerts[bestShard][j.alertPos[bestShard]]
		table.entries[ia.tenant].det.commit(ia.alert)
		j.alertPos[bestShard]++
	}
	if table.single() {
		// The classic shape: the monitor folds every submitted event (an
		// unmatched event still creates vantage-point state), and the
		// tenant counter tracks matched events.
		e := &table.entries[0]
		matched := 0
		for i := range j.batch.Events {
			if j.matchN[i] > 0 {
				matched++
			}
		}
		e.rt.events.Add(int64(matched))
		if e.mon != nil {
			e.mon.ProcessBatch(j.batch.Events)
		}
	} else {
		// Multi-tenant: each tenant's monitor folds exactly the events that
		// matched that tenant — the stream an independent per-tenant
		// instance would have received from its own feed filter.
		for i := range j.batch.Events {
			off, n := j.matchOff[i], j.matchN[i]
			for _, m := range j.matches[off : off+n] {
				e := &table.entries[m.tenant]
				e.rt.events.Inc()
				if e.mon != nil {
					e.mon.Process(j.batch.Events[i])
				}
			}
		}
	}
	for _, d := range j.drops {
		e := &table.entries[d.tenant]
		e.rt.quotaDrops.Add(d.n)
		if table.onQuotaDrop != nil {
			table.onQuotaDrop(e.name, d.n)
		}
	}
	p.sinkApply.Observe(time.Since(start))
	p.finish(j)
}

// finish releases the job's batch and recycles the job, then publishes
// its completion to Flush and SubmitWait waiters — so a returned Flush or
// SubmitWait implies the batch is already released. Waiters captured the
// wait channel at submit time and never touch the job itself.
func (p *Pipeline) finish(j *batchJob) {
	wait := j.wait
	p.putJob(j)
	p.applyMu.Lock()
	p.applied.Inc()
	p.applyCond.Broadcast()
	p.applyMu.Unlock()
	if wait != nil {
		close(wait)
	}
}

// putJob releases the job's batch (the pipeline is its last owner) and
// returns the job to the free list, dropping it when the list is full.
func (p *Pipeline) putJob(j *batchJob) {
	if j.batch != nil {
		j.batch.Release()
	}
	j.reset(len(p.shards))
	select {
	case p.jobs <- j:
	default:
	}
}

// Reconfigure atomically swaps the pipeline's routing state to next and
// runs onApply at the swap's serial position, returning once the swap has
// been applied. The serial-equivalence argument for events in flight:
//
//   - Routing, sequencing and shard enqueue happen under the life lock
//     held shared; Reconfigure holds it exclusively while swapping the
//     trie and enqueueing a barrier job at the next sequence number. Every
//     batch therefore routes entirely under one config snapshot, carries
//     that snapshot to the shards (classification never consults live
//     state), and is sequenced strictly before or after the barrier.
//   - The sink applies jobs in sequence order, so onApply — which should
//     swap the detector/monitor/mitigator to the same snapshot — observes
//     exactly the state the serial path would have after processing every
//     pre-swap event and none of the post-swap ones.
//
// The observable behavior is therefore identical to a serial execution in
// which the reconfiguration happens between the last batch submitted
// before Reconfigure and the first batch submitted after it. Reconfigure
// must not be called from an alert handler or monitor fold (both run on
// the sink goroutine, which the barrier waits on). If the pipeline is
// already closed, the swap (and onApply) still runs, inline.
//
// Reconfigure replaces the first (on a single-tenant pipeline: the only)
// tenant's config; every other tenant's policy, and all per-tenant
// runtime state, carries over. ReconfigureTable swaps the whole table.
func (p *Pipeline) Reconfigure(next *Config, onApply func()) {
	p.life.Lock()
	p.swapTableLocked(p.table.WithConfig(0, next), onApply)
}

// ReconfigureTable atomically swaps the whole policy table — tenants
// added, removed or retuned in one barrier — with the same serial
// position guarantees as Reconfigure. Tenants surviving the swap should
// carry their Runtime (and usually Detector/Monitor) into the next table,
// or their counters and quota state restart from zero.
func (p *Pipeline) ReconfigureTable(next *PolicyTable, onApply func()) {
	p.life.Lock()
	p.swapTableLocked(next, onApply)
}

// swapTableLocked installs next and enqueues the reconfiguration barrier.
// Called with p.life held exclusively; releases it, and blocks until the
// sink has run the barrier.
func (p *Pipeline) swapTableLocked(next *PolicyTable, onApply func()) {
	if p.closed {
		p.life.Unlock()
		if onApply != nil {
			onApply()
		}
		return
	}
	p.table = next
	job := p.getJob()
	job.reset(len(p.shards))
	job.table = next
	job.swap = func() {}
	if onApply != nil {
		job.swap = onApply
	}
	waitCh := make(chan struct{})
	job.wait = waitCh
	job.seq = p.nextSeq.Add(1) - 1
	p.submitted.Inc()
	p.reconfigs.Inc()
	// The barrier skips the shards (it has no events) and goes straight to
	// the sink's reorder stage.
	p.done <- job
	p.life.Unlock()
	<-waitCh
}

// Flush blocks until every batch submitted before the call has been
// applied. Batches submitted concurrently with or after Flush are not
// waited for, so a flush completes even while sources keep publishing.
func (p *Pipeline) Flush() {
	target := p.submitted.Load()
	p.applyMu.Lock()
	for p.applied.Load() < target {
		p.applyCond.Wait()
	}
	p.applyMu.Unlock()
}

// Close drains every pending batch through the sink and stops the
// workers. It is idempotent; Submit after Close releases the batch
// without ingesting it.
func (p *Pipeline) Close() {
	p.life.Lock()
	if p.closed {
		p.life.Unlock()
		return
	}
	p.closed = true
	for _, s := range p.shards {
		s.in.Close()
	}
	p.life.Unlock()

	p.workers.Wait()
	close(p.done)
	<-p.sinkDone
}

// Snapshot reports the pipeline's counters: cumulative ingest totals plus
// per-shard throughput and instantaneous queue depth.
func (p *Pipeline) Snapshot() stats.PipelineSnapshot {
	snap := stats.PipelineSnapshot{
		Submitted: p.submitted.Load(),
		Applied:   p.applied.Load(),
		Events:    p.events.Load(),
		Reconfigs: p.reconfigs.Load(),
		SinkApply: p.sinkApply.Snapshot(),
	}
	for i, s := range p.shards {
		snap.Shards = append(snap.Shards, stats.ShardSnapshot{
			Shard:    i,
			Events:   s.events.Load(),
			Batches:  s.batches.Load(),
			QueueLen: s.in.Len(),
			QueueCap: s.in.Cap(),
			Service:  s.service.Snapshot(),
		})
	}
	return snap
}
