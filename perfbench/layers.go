package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"artemis/internal/bgp"
	"artemis/internal/bgp/bmp"
	"artemis/internal/feeds/feedtypes"
	"artemis/internal/prefix"
	"artemis/internal/rib"
	"artemis/pkg/artemis"
)

// span is one timed interval at a layer boundary, recorded by the
// benchmark around its calls into the node. Spans of one hijack share
// its id; parent indexes the span that caused this one (-1: none).
type span struct {
	name       string
	start, end int64
	parent     int32
	id         int64
	n          int32 // items the call carried (changes, messages)
}

// tracer keeps spans in memory; they are written out when the run ends.
type tracer struct {
	mu    sync.Mutex
	spans []span
}

func (t *tracer) add(s span) int32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, s)
	return int32(len(t.spans) - 1)
}

// hijackSpans derives the per-hijack spans from the run's records:
// gen.hijack (due → sent, child of its gen.send), alert.recv (child of
// gen.hijack) and mitigate.announce (child of alert.recv), all carrying
// the hijack's id.
func (r *runner) hijackSpans(incs []incident, sent []int64) {
	sendSpan := map[int32]int32{}
	for ph := 0; ph < 2; ph++ {
		pi := &r.in.phases[ph]
		for _, b := range r.batches[ph] {
			meta := pi.meta
			if b.router >= 0 {
				meta = pi.wire[b.router].meta
			}
			for _, m := range meta[b.from:b.to] {
				if _, ok := sendSpan[m.hijack]; m.hijack >= 0 && !ok {
					sendSpan[m.hijack] = b.span
				}
			}
		}
	}
	hs := map[int32]int32{}
	for h, at := range sent {
		if at < 0 {
			continue
		}
		due := at
		if r.in.hijacks[h].phase == phaseLat {
			due = r.dueAt(int32(r.in.hijacks[h].idx))
		}
		parent, ok := sendSpan[int32(h)]
		if !ok {
			parent = -1
		}
		hs[int32(h)] = r.tr.add(span{name: "gen.hijack", start: due, end: at, parent: parent, id: int64(h)})
	}
	for _, inc := range incs {
		if inc.alertAt < 0 {
			continue
		}
		a := r.tr.add(span{name: "alert.recv", start: inc.alertAt, end: inc.alertAt, parent: hs[inc.h], id: int64(inc.h)})
		if inc.announced >= 0 {
			r.tr.add(span{name: "mitigate.announce", start: inc.announced, end: inc.announced, parent: a, id: int64(inc.h)})
		}
	}
	for _, s := range r.reconf.spans {
		r.tr.add(s)
	}
}

// selfTimes sums each span name's self time: its duration minus the
// part its children cover.
func (t *tracer) selfTimes() map[string]time.Duration {
	covered := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			p := t.spans[s.parent]
			lo, hi := max(s.start, p.start), min(s.end, p.end)
			if hi > lo {
				covered[s.parent] += hi - lo
			}
		}
	}
	out := map[string]time.Duration{}
	for i, s := range t.spans {
		out[s.name] += time.Duration(s.end - s.start - covered[i])
	}
	return out
}

// write stores the spans as JSON lines at path.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(map[string]any{"name": s.name, "start_ns": s.start, "end_ns": s.end,
			"parent": s.parent, "id": s.id, "n": s.n}); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// sampler polls the node's counters at a coarse interval during a
// traced run (never in the untraced one).
type sampler struct {
	stop, done            chan struct{}
	queueMax, inflightMax float64
	heapMax               uint64
}

// sampleEvery is the sampling interval, stretched to sampleCost times
// the last scrape: a WriteMetrics over 1,000 tenants takes milliseconds,
// and the sampler must stay a small share of one CPU.
const (
	sampleEvery = 50 * time.Millisecond
	sampleCost  = 50
)

func startSampler(n *artemis.Node) *sampler {
	s := &sampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		wait := sampleEvery
		for {
			t := time.NewTimer(wait)
			select {
			case <-s.stop:
				t.Stop()
				return
			case <-t.C:
			}
			start := time.Now()
			p := scrape(n)
			s.queueMax = max(s.queueMax, p.max("artemis_ingest_source_queue_depth"))
			s.inflightMax = max(s.inflightMax, p.max("artemis_pipeline_inflight_batches"))
			s.heapMax = max(s.heapMax, readGoStats().heapBytes)
			wait = max(sampleEvery, sampleCost*time.Since(start))
		}
	}()
	return s
}

func (s *sampler) halt() {
	close(s.stop)
	<-s.done
}

// standalone times the layers the node run cannot separate, over the
// run's exact inputs after the node has drained: BMP decode, the
// station filter and the RIB tee.
type standalone struct {
	decodeNS, allocsPerMsg, filterNS, ribApplyNS float64
}

func (r *runner) timeStandalone() (standalone, error) {
	var st standalone
	if r.spec.feed != feedBMP {
		return st, nil
	}
	// The bytes each router sent: greeting, ready, each phase's batches
	// and then its markers.
	var streams [2][]byte
	for rt := 0; rt < 2; rt++ {
		streams[rt] = append(append([]byte(nil), r.in.greeting[rt]...), r.in.ready[rt]...)
	}
	for ph := 0; ph < 2; ph++ {
		pi := &r.in.phases[ph]
		for _, b := range r.batches[ph] {
			ws := &pi.wire[b.router]
			streams[b.router] = append(streams[b.router], ws.bytes[ws.off[b.from]:ws.off[b.to]]...)
		}
		for rt := 0; rt < 2; rt++ {
			streams[rt] = append(streams[rt], pi.markerWire[rt].bytes...)
		}
	}
	msgs := 0
	g0 := readGoStats()
	start := time.Now()
	for rt := 0; rt < 2; rt++ {
		rd := bmp.NewReader(bytes.NewReader(streams[rt]), bgp.DefaultOptions)
		for {
			if _, err := rd.Next(); err != nil {
				if errors.Is(err, io.EOF) {
					break
				}
				return st, err
			}
			msgs++
		}
	}
	el := time.Since(start)
	g1 := readGoStats()
	st.decodeNS = float64(el.Nanoseconds()) / float64(msgs)
	st.allocsPerMsg = float64(g1.allocs-g0.allocs) / float64(msgs)

	// Every route the station saw, and the delivered ones as the events
	// the RIB tee receives (one batch per message, as the station sends).
	var routes []prefix.Prefix
	var delivered [][]feedtypes.Event
	owned := make([]prefix.Prefix, 0, len(r.in.groups))
	for _, g := range r.in.groups {
		owned = append(owned, g.pfx)
	}
	f := feedtypes.Filter{Prefixes: owned, MoreSpecific: true, LessSpecific: true}
	// A change both routers mirror reaches the tee once (first wins).
	type changeKey struct {
		vp       bgp.ASN
		ts       time.Time
		p        prefix.Prefix
		withdraw bool
	}
	seen := map[changeKey]bool{}
	fresh := func(vp bgp.ASN, ts time.Time, p prefix.Prefix, withdraw bool) bool {
		k := changeKey{vp, ts, p, withdraw}
		if seen[k] {
			return false
		}
		seen[k] = true
		return true
	}
	for rt := 0; rt < 2; rt++ {
		rd := bmp.NewReader(bytes.NewReader(streams[rt]), bgp.DefaultOptions)
		for {
			m, err := rd.Next()
			if err != nil {
				break
			}
			rm, ok := m.(*bmp.RouteMonitoring)
			if !ok {
				continue
			}
			var batch []feedtypes.Event
			for _, p := range rm.Update.Withdrawn {
				routes = append(routes, p)
				if f.Match(p) && fresh(rm.Peer.AS, rm.Peer.Timestamp, p, true) {
					batch = append(batch, feedtypes.Event{Kind: feedtypes.Withdraw, Prefix: p, VantagePoint: rm.Peer.AS})
				}
			}
			path, _ := rm.Update.ASPath()
			for _, p := range rm.Update.NLRI {
				routes = append(routes, p)
				if f.Match(p) && fresh(rm.Peer.AS, rm.Peer.Timestamp, p, false) {
					batch = append(batch, feedtypes.Event{Kind: feedtypes.Announce, Prefix: p, VantagePoint: rm.Peer.AS,
						Path: append([]bgp.ASN(nil), path...)})
				}
			}
			if len(batch) > 0 {
				delivered = append(delivered, batch)
			}
		}
	}
	matched := 0
	start = time.Now()
	for _, p := range routes {
		if f.Match(p) {
			matched++
		}
	}
	st.filterNS = float64(time.Since(start).Nanoseconds()) / float64(len(routes))

	tb := rib.New()
	if _, err := rib.LoadFile(r.ribPath, tb); err != nil {
		return st, err
	}
	n := 0
	start = time.Now()
	for _, b := range delivered {
		tb.Apply(b)
		n += len(b)
	}
	if n > 0 {
		st.ribApplyNS = float64(time.Since(start).Nanoseconds()) / float64(n)
	}
	if matched < countRoutes(delivered) {
		return st, fmt.Errorf("filter replay matched %d routes, fewer than the %d delivered", matched, countRoutes(delivered))
	}
	return st, nil
}

func countRoutes(batches [][]feedtypes.Event) int {
	n := 0
	for _, b := range batches {
		n += len(b)
	}
	return n
}
