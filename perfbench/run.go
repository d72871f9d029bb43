package main

import (
	"runtime"
	"sync"
	"syscall"
	"time"

	"artemis/pkg/artemis"
)

// tick is the open-loop generator's wake-up period: everything due by
// then is sent in one batch, so a change waits at most one tick for the
// generator before its latency clock counts any node delay.
const tick = time.Millisecond

// closedBatch is the saturation phase's batch: observations per Inject,
// messages per BMP write.
const closedBatch = 256

// subBuffer is the benchmark's Subscribe buffer: deep enough that the
// consumer never sheds alerts it is checking.
const subBuffer = 1 << 16

// maxOpenBatch caps one open-loop send when the generator falls behind.
const maxOpenBatch = 2048

// defaultWait bounds how long a phase waits for outstanding alerts and
// mitigations before counting them missing.
const defaultWait = 20 * time.Second

// batchRec is one send: messages (or observations) [from, to) of a
// phase stream on one router (router -1 for Inject), started at start.
type batchRec struct {
	router   int8
	from, to int32
	start    int64
	echoes   int32
	span     int32
}

// runner drives one measured node run of a workload.
type runner struct {
	in      *inputs
	spec    workloadSpec
	satDur  time.Duration
	tr      *tracer
	ribPath string
	wait    time.Duration

	ln      *liveNode
	batches [2][]batchRec
	// markerAt[ph][r] is when router r sent phase ph's marker (0: not
	// sent).
	markerAt [2][]int64
	// latT0 anchors the latency phase's schedule.
	latT0 int64
	// sendErrs counts failed writes and Inject calls.
	sendErrs int

	// obsBuf holds the batch being injected.
	obsBuf []artemis.RouteObservation

	echoMu   sync.Mutex
	echoQ    []string
	echoPath [][]uint32
	echoed   int // echo observations offered so far
	// echoCount tallies the echoes each phase offered; routes is the
	// count, sub those that are strict more-specifics of owned prefixes.
	echoCount [2]traffic
	ownedText map[string]bool

	reconf struct {
		spans []span
		errs  int
	}
}

func newRunner(in *inputs, satDur time.Duration, tr *tracer, ribPath string) *runner {
	r := &runner{in: in, spec: in.spec, satDur: satDur, tr: tr, ribPath: ribPath,
		ownedText: map[string]bool{}}
	for ph := range r.markerAt {
		r.markerAt[ph] = make([]int64, len(in.phases[ph].markers))
	}
	for _, g := range in.groups {
		r.ownedText[g.text] = true
	}
	for v := range in.vpASN {
		r.echoPath = append(r.echoPath, []uint32{in.vpASN[v], 3356, legitASN})
	}
	return r
}

// pushEcho queues a mitigation announcement to come back through the feed.
func (r *runner) pushEcho(p string) {
	r.echoMu.Lock()
	r.echoQ = append(r.echoQ, p)
	r.echoMu.Unlock()
}

// drainEcho appends the queued echoes, each seen by returnVPs vantage
// points, to batch and returns it with the number appended.
func (r *runner) drainEcho(ph int, batch []artemis.RouteObservation) ([]artemis.RouteObservation, int) {
	r.echoMu.Lock()
	q := r.echoQ
	r.echoQ = nil
	r.echoMu.Unlock()
	n := 0
	for i, p := range q {
		for k := 0; k < r.spec.returnVPs; k++ {
			vp := (i + k*7 + r.echoed) % len(r.echoPath)
			batch = append(batch, artemis.RouteObservation{VantagePoint: r.in.vpASN[vp], Prefix: p, Path: r.echoPath[vp]})
			n++
		}
		if !r.ownedText[p] {
			r.echoCount[ph].sub += int64(r.spec.returnVPs)
		}
		r.echoCount[ph].repeats += int64(r.spec.returnVPs - 1)
	}
	r.echoCount[ph].routes += int64(n)
	r.echoed += n
	return batch, n
}

// inject sends one Inject batch and records it.
func (r *runner) inject(ph int, from, to int) {
	start := nowNS()
	r.obsBuf = r.in.expand(r.obsBuf, r.in.phases[ph].obs[from:to])
	batch, echoes := r.obsBuf, 0
	if r.spec.returnVPs > 0 {
		batch, echoes = r.drainEcho(ph, batch)
		r.obsBuf = batch
	}
	callStart := nowNS()
	err := r.ln.node.Inject(batch...)
	end := nowNS()
	if err != nil {
		r.sendErrs++
	}
	sp := int32(-1)
	if r.tr != nil {
		sp = r.tr.add(span{name: "gen.send", start: start, end: end, parent: -1, id: -1, n: int32(len(batch))})
		r.tr.add(span{name: "node.inject", start: callStart, end: end, parent: sp, id: -1, n: int32(len(batch))})
	}
	r.batches[ph] = append(r.batches[ph], batchRec{router: -1, from: int32(from), to: int32(to), start: start,
		echoes: int32(echoes), span: sp})
}

// saturate runs the closed-loop phase: each feed sends its next batch
// when the previous Inject or write returns, until the phase deadline
// or the pre-built input runs out; then the markers go out.
func (r *runner) saturate(start int64) {
	pi := &r.in.phases[phaseSat]
	deadline := start + int64(r.satDur)
	if r.spec.feed == feedInject {
		for i := 0; i < len(pi.obs) && nowNS() < deadline; {
			j := min(i+closedBatch, len(pi.obs))
			r.inject(phaseSat, i, j)
			i = j
		}
		r.sendErrs += r.sendMarker(phaseSat, 0)
		return
	}
	recs := r.perRouter(func(rt int, rec *[]batchRec) int {
		ws := &pi.wire[rt]
		for i := 0; i < ws.msgs() && nowNS() < deadline; {
			j := min(i+closedBatch, ws.msgs())
			if !r.write(rt, ws, i, j, rec) {
				return 1
			}
			i = j
		}
		return r.sendMarker(phaseSat, rt)
	})
	r.batches[phaseSat] = append(r.batches[phaseSat], recs...)
}

// sendMarker sends phase ph's marker on router rt (Inject: rt 0) and
// reports a failed send as 1.
func (r *runner) sendMarker(ph, rt int) int {
	pi := &r.in.phases[ph]
	r.markerAt[ph][rt] = nowNS()
	var err error
	if r.spec.feed == feedInject {
		err = r.ln.node.Inject(pi.markerObs[0])
	} else {
		_, err = r.ln.routers[rt].conn.Write(pi.markerWire[rt].bytes)
	}
	if err != nil {
		return 1
	}
	return 0
}

// perRouter runs fn for both BMP routers on their own goroutines, adds
// the write errors they report and merges their batch records.
func (r *runner) perRouter(fn func(rt int, rec *[]batchRec) int) []batchRec {
	var wg sync.WaitGroup
	var recs [2][]batchRec
	var errs [2]int
	for rt := 0; rt < 2; rt++ {
		wg.Add(1)
		go func(rt int) {
			defer wg.Done()
			errs[rt] = fn(rt, &recs[rt])
		}(rt)
	}
	wg.Wait()
	r.sendErrs += errs[0] + errs[1]
	return append(recs[0], recs[1]...)
}

// write sends messages [from, to) of ws on router rt.
func (r *runner) write(rt int, ws *wireStream, from, to int, rec *[]batchRec) bool {
	start := nowNS()
	_, err := r.ln.routers[rt].conn.Write(ws.bytes[ws.off[from]:ws.off[to]])
	end := nowNS()
	sp := int32(-1)
	if r.tr != nil {
		sp = r.tr.add(span{name: "gen.send", start: start, end: end, parent: -1, id: -1, n: int32(to - from)})
	}
	*rec = append(*rec, batchRec{router: int8(rt), from: int32(from), to: int32(to), start: start, span: sp})
	return err == nil
}

// dueAt is when logical change i of the latency phase is due.
func (r *runner) dueAt(i int32) int64 {
	return r.latT0 + int64(float64(i)*1e9/r.spec.rate)
}

// openLoop runs the latency phase: changes are due on a fixed schedule
// at the workload's rate whatever the node does. The generator wakes
// once a tick and sends everything due, and it also wakes at each
// planted hijack's due time, so a hijack's latency clock counts the
// node, not the generator's batching.
func (r *runner) openLoop() {
	pi := &r.in.phases[phaseLat]
	r.latT0 = nowNS() + int64(2*time.Millisecond)
	// first reports whether meta m is the first copy of a planted hijack.
	first := func(m msgMeta) bool { return m.hijack >= 0 && int(m.logical) == r.in.hijacks[m.hijack].idx }
	schedule := func(meta []msgMeta, send func(from, to int) bool) {
		defer preciseSleeps()()
		n := len(meta)
		due := func(i int) int64 { return r.dueAt(meta[i].logical) }
		last, next := int64(0), 0 // next: the first hijack copy at or after i
		for i := 0; i < n; {
			for next < n && (next < i || !first(meta[next])) {
				next++
			}
			now := nowNS()
			k := i
			for k < n && k-i < maxOpenBatch && due(k) <= now {
				k++
			}
			if k == i {
				wake := max(due(i), last+int64(tick))
				if next < n {
					wake = max(due(i), min(wake, due(next)))
				}
				sleepUntil(wake)
				continue
			}
			last = now
			if !send(i, k) {
				return
			}
			i = k
		}
	}
	if r.spec.feed == feedInject {
		schedule(pi.meta, func(from, to int) bool {
			r.inject(phaseLat, from, to)
			return true
		})
		r.sendErrs += r.sendMarker(phaseLat, 0)
		return
	}
	recs := r.perRouter(func(rt int, rec *[]batchRec) int {
		ws := &pi.wire[rt]
		failed := 0
		schedule(ws.meta, func(from, to int) bool {
			if !r.write(rt, ws, from, to, rec) {
				failed = 1
				return false
			}
			return true
		})
		if failed > 0 {
			return failed
		}
		return r.sendMarker(phaseLat, rt)
	})
	r.batches[phaseLat] = append(r.batches[phaseLat], recs...)
}

// preciseSleeps pins the calling goroutine to its OS thread and drops
// the thread's timer slack, so sleepUntil wakes within microseconds;
// the Go runtime's own timers wake sub-millisecond sleeps up to a
// millisecond late. It returns the function that undoes both.
func preciseSleeps() func() {
	runtime.LockOSThread()
	syscall.Syscall(syscall.SYS_PRCTL, prSetTimerSlack, 1, 0)
	return func() {
		syscall.Syscall(syscall.SYS_PRCTL, prSetTimerSlack, 0, 0) // 0: the thread's default
		runtime.UnlockOSThread()
	}
}

// prSetTimerSlack is Linux's PR_SET_TIMERSLACK prctl option.
const prSetTimerSlack = 29

// sleepUntil blocks the OS thread in nanosleep until nowNS reaches t.
func sleepUntil(t int64) {
	for d := t - nowNS(); d > 0; d = t - nowNS() {
		ts := syscall.NsecToTimespec(d)
		syscall.Nanosleep(&ts, nil)
	}
}

// reconfigure toggles owned prefixes every reconfigEvery until stop
// closes: each tick adds the next prefix of the pool and removes the
// one added before it.
func (r *runner) reconfigure(stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	t := time.NewTicker(r.spec.reconfigEvery)
	defer t.Stop()
	pool := r.in.reconfig
	for k := 0; ; k++ {
		select {
		case <-stop:
			return
		case <-t.C:
		}
		start := nowNS()
		err := r.ln.node.AddPrefixes(pool[k%len(pool)])
		if err == nil && k > 0 {
			err = r.ln.node.RemovePrefixes(pool[(k-1)%len(pool)])
		}
		if err != nil {
			r.reconf.errs++
		}
		r.reconf.spans = append(r.reconf.spans, span{name: "node.reconfig", start: start, end: nowNS(), parent: -1, id: -1})
	}
}

// waitFor polls cond every interval until it holds or limit passes.
func waitFor(cond func() bool, interval, limit time.Duration) bool {
	deadline := time.Now().Add(limit)
	for !cond() {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(interval)
	}
	return true
}

// hijacksSent returns, per hijack, when its first sent copy went out
// (-1: never), derived from the batch records.
func (r *runner) hijacksSent() []int64 {
	sent := make([]int64, len(r.in.hijacks))
	for i := range sent {
		sent[i] = -1
	}
	mark := func(id int32, at int64) {
		if id >= 0 && (sent[id] < 0 || at < sent[id]) {
			sent[id] = at
		}
	}
	for ph := 0; ph < 2; ph++ {
		pi := &r.in.phases[ph]
		for _, b := range r.batches[ph] {
			meta := pi.meta
			if b.router >= 0 {
				meta = pi.wire[b.router].meta
			}
			for _, m := range meta[b.from:b.to] {
				mark(m.hijack, b.start)
			}
		}
	}
	for ph := 0; ph < 2; ph++ {
		for rt, id := range r.in.phases[ph].markers {
			if at := r.markerAt[ph][rt]; at > 0 {
				mark(id, at)
			}
		}
	}
	return sent
}
