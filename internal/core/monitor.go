package core

import (
	"sort"
	"sync"
	"time"

	"artemis/internal/bgp"
	"artemis/internal/feeds/feedtypes"
	"artemis/internal/prefix"
)

// Monitor is the monitoring service (§2): it consumes the same feeds as
// the detector and maintains, per vantage point, which origin AS currently
// captures the owned address space — the real-time view of hijack spread
// and mitigation progress that the demo visualizes (§4).
//
// The partition of vantage points (legit / hijacked / unknown) is
// maintained incrementally: each VP caches a per-probe verdict plus its
// informed/bad counts, and each event recomputes only the probes its
// prefix can affect (an announce or withdraw of P changes a probe's
// longest-prefix match only when P contains the probe address). Folding
// an event is therefore O(affected probes × trie depth) instead of the
// O(VPs × probes) full rescore the pre-incremental sink paid per event —
// Rescore keeps that fold around as the verification oracle.
type Monitor struct {
	cfg *Config

	mu      sync.Mutex
	vps     map[bgp.ASN]*vpState
	history []Sample
	probes  []prefix.Addr
	// byAddr indexes probes in ascending address order so the probes a
	// prefix covers resolve with one binary search.
	byAddr []int
	// tally is the running partition, updated as VP verdicts change.
	tally Sample
	// lastAt is the latest event time folded; History uses it to close
	// the series with the final plateau even when the partition has not
	// changed for a long quiet tail.
	lastAt time.Duration
}

// vpVerdictKind is a vantage point's cached classification.
type vpVerdictKind uint8

const (
	vpUnknown vpVerdictKind = iota
	vpLegit
	vpHijacked
)

// probeStatus is a VP's cached view of one probe address.
type probeStatus uint8

const (
	probeUnmatched probeStatus = iota // no announced prefix covers it
	probeLegit                        // covered, legitimate origin
	probeBad                          // covered, illegitimate origin
)

type vpState struct {
	// entries: announced prefix → (origin, last change time) as seen from
	// this vantage point, across all feeds (freshest wins).
	entries *prefix.Trie[vpEntry]
	last    map[prefix.Prefix]time.Duration
	// status caches the per-probe verdict; informed and bad are the counts
	// of matched and illegitimately-originated probes, so the VP's verdict
	// is O(1) to read after an O(affected) update.
	status   []probeStatus
	informed int
	bad      int
}

func (st *vpState) verdict() vpVerdictKind {
	switch {
	case st.informed == 0:
		return vpUnknown
	case st.bad > 0:
		return vpHijacked
	default:
		return vpLegit
	}
}

type vpEntry struct {
	origin bgp.ASN
}

// Sample is one point of the mitigation-progress time series.
type Sample struct {
	Time time.Duration
	// LegitVPs / HijackedVPs / UnknownVPs partition the vantage points:
	// all probes legit / any probe captured by an illegitimate origin /
	// no routing information yet.
	LegitVPs, HijackedVPs, UnknownVPs int
}

// samePartition reports whether two samples carry the same VP partition
// (ignoring time) — the history coalescing criterion.
func (s Sample) samePartition(o Sample) bool {
	return s.LegitVPs == o.LegitVPs && s.HijackedVPs == o.HijackedVPs && s.UnknownVPs == o.UnknownVPs
}

// FractionLegit is the share of informed vantage points that route every
// probe to a legitimate origin.
func (s Sample) FractionLegit() float64 {
	informed := s.LegitVPs + s.HijackedVPs
	if informed == 0 {
		return 0
	}
	return float64(s.LegitVPs) / float64(informed)
}

// NewMonitor builds the monitoring service.
func NewMonitor(cfg *Config) *Monitor {
	m := &Monitor{cfg: cfg, vps: make(map[bgp.ASN]*vpState)}
	m.probes = probeAddrs(cfg.OwnedPrefixes)
	m.byAddr = make([]int, len(m.probes))
	for i := range m.byAddr {
		m.byAddr[i] = i
	}
	sort.Slice(m.byAddr, func(a, b int) bool {
		return m.probes[m.byAddr[a]].Less(m.probes[m.byAddr[b]])
	})
	return m
}

// probeAddrs picks representative addresses inside the owned space: the
// first address of each /24 (v4) or /48 (v6) — the filtering granularities
// — capped at 8 per owned prefix, so sub-prefix hijacks of any slice are
// noticed. Larger owned blocks probe 8 evenly spaced sub-prefix starts.
func probeAddrs(owned []prefix.Prefix) []prefix.Addr {
	var out []prefix.Prefix // reuse Deaggregate; addresses extracted below
	for _, p := range owned {
		probeLen := 24
		if p.Is6() {
			probeLen = 48
		}
		bits := p.Bits()
		if bits > probeLen {
			out = append(out, p)
			continue
		}
		target := probeLen
		if target > bits+3 {
			target = bits + 3 // 8 evenly spaced sub-prefixes
		}
		subs, err := p.Deaggregate(target)
		if err != nil {
			out = append(out, p)
			continue
		}
		out = append(out, subs...)
	}
	addrs := make([]prefix.Addr, len(out))
	for i, s := range out {
		addrs[i] = s.Addr()
	}
	return addrs
}

// SetConfig swaps the monitor to a new configuration snapshot: the probe
// set is rebuilt for the new owned space, every vantage point's cached
// per-probe verdicts are recomputed from its (preserved) routing view, and
// the partition tallies are re-derived. If the partition changes — a VP
// hijacked only on a removed prefix becomes legit, a VP already routing a
// newly added prefix to an attacker becomes hijacked — the history gains a
// change-point at the latest folded event time. Called by the service's
// reconfiguration barrier, i.e. at a fixed serial position in the event
// stream.
func (m *Monitor) SetConfig(next *Config) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.cfg = next
	m.probes = probeAddrs(next.OwnedPrefixes)
	m.byAddr = make([]int, len(m.probes))
	for i := range m.byAddr {
		m.byAddr[i] = i
	}
	sort.Slice(m.byAddr, func(a, b int) bool {
		return m.probes[m.byAddr[a]].Less(m.probes[m.byAddr[b]])
	})
	m.tally = Sample{}
	for _, st := range m.vps {
		st.status = make([]probeStatus, len(m.probes))
		st.informed, st.bad = 0, 0
		for idx, addr := range m.probes {
			if pfx, e, ok := st.entries.LongestMatch(addr); ok {
				st.informed++
				if m.cfg.entryLegit(pfx, e.origin) {
					st.status[idx] = probeLegit
				} else {
					st.status[idx] = probeBad
					st.bad++
				}
			}
		}
		m.tallyAdd(st.verdict())
	}
	if len(m.history) > 0 {
		m.coalesceLocked(m.lastAt)
	}
}

// Process folds one feed event into the per-VP view. Exported for network
// clients that deliver events themselves.
func (m *Monitor) Process(ev feedtypes.Event) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.processLocked(ev)
}

// ProcessBatch folds a batch of feed events in order under one lock
// acquisition — the sink's fast path. Semantics are identical to calling
// Process per event.
func (m *Monitor) ProcessBatch(evs []feedtypes.Event) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for i := range evs {
		m.processLocked(evs[i])
	}
}

func (m *Monitor) processLocked(ev feedtypes.Event) {
	st := m.vps[ev.VantagePoint]
	if st == nil {
		st = &vpState{
			entries: prefix.NewTrie[vpEntry](),
			last:    make(map[prefix.Prefix]time.Duration),
			status:  make([]probeStatus, len(m.probes)),
		}
		m.vps[ev.VantagePoint] = st
		m.tally.UnknownVPs++ // a fresh VP has no routing information yet
	}
	// Freshest observation wins across sources; a stale LG poll must not
	// roll back a newer streamed update.
	if last, ok := st.last[ev.Prefix]; ok && ev.SeenAt < last {
		return
	}
	st.last[ev.Prefix] = ev.SeenAt
	old := st.verdict()
	if ev.Kind == feedtypes.Withdraw {
		st.entries.Delete(ev.Prefix)
	} else if origin, ok := ev.Origin(); ok {
		st.entries.Insert(ev.Prefix, vpEntry{origin: origin})
	} else {
		// Malformed announcement: no trie change, no verdict change.
		m.coalesceLocked(ev.EmittedAt)
		return
	}
	m.rescoreProbesLocked(st, ev.Prefix)
	if now := st.verdict(); now != old {
		m.tallySub(old)
		m.tallyAdd(now)
	}
	m.coalesceLocked(ev.EmittedAt)
}

// rescoreProbesLocked recomputes the cached status of every probe the
// prefix covers for one VP, maintaining the VP's informed/bad counts.
func (m *Monitor) rescoreProbesLocked(st *vpState, p prefix.Prefix) {
	// Probes sort family-first (v4 before v6), so the [lo, hi] window of a
	// prefix only spans probes of its own family.
	lo, hi := p.Addr(), p.Last()
	i := sort.Search(len(m.byAddr), func(i int) bool { return m.probes[m.byAddr[i]].Compare(lo) >= 0 })
	for ; i < len(m.byAddr) && m.probes[m.byAddr[i]].Compare(hi) <= 0; i++ {
		idx := m.byAddr[i]
		var now probeStatus
		if pfx, e, ok := st.entries.LongestMatch(m.probes[idx]); ok {
			if m.cfg.entryLegit(pfx, e.origin) {
				now = probeLegit
			} else {
				now = probeBad
			}
		}
		was := st.status[idx]
		if was == now {
			continue
		}
		if was != probeUnmatched {
			st.informed--
			if was == probeBad {
				st.bad--
			}
		}
		if now != probeUnmatched {
			st.informed++
			if now == probeBad {
				st.bad++
			}
		}
		st.status[idx] = now
	}
}

func (m *Monitor) tallyAdd(v vpVerdictKind) {
	switch v {
	case vpUnknown:
		m.tally.UnknownVPs++
	case vpLegit:
		m.tally.LegitVPs++
	default:
		m.tally.HijackedVPs++
	}
}

func (m *Monitor) tallySub(v vpVerdictKind) {
	switch v {
	case vpUnknown:
		m.tally.UnknownVPs--
	case vpLegit:
		m.tally.LegitVPs--
	default:
		m.tally.HijackedVPs--
	}
}

// coalesceLocked appends a history sample only when the partition changed
// since the previous sample, so repeated events with an unchanged VP
// partition cost zero history growth (History is a change-point series).
func (m *Monitor) coalesceLocked(at time.Duration) {
	if at > m.lastAt {
		m.lastAt = at
	}
	s := m.tally
	s.Time = at
	if n := len(m.history); n > 0 && m.history[n-1].samePartition(s) {
		return
	}
	m.history = append(m.history, s)
}

// Snapshot returns the current partition of vantage points. It reads the
// incrementally maintained tallies: O(1).
func (m *Monitor) Snapshot(at time.Duration) Sample {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := m.tally
	s.Time = at
	return s
}

// Rescore recomputes the partition from scratch — the O(VPs × probes)
// fold the pre-incremental sink paid on every event. It is the
// verification oracle for the incremental tallies (tests assert
// Rescore == Snapshot) and the baseline side of BenchmarkSinkApply.
func (m *Monitor) Rescore(at time.Duration) Sample {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := Sample{Time: at}
	for _, st := range m.vps {
		informed, bad := 0, 0
		for _, addr := range m.probes {
			pfx, e, ok := st.entries.LongestMatch(addr)
			if !ok {
				continue
			}
			informed++
			if !m.cfg.entryLegit(pfx, e.origin) {
				bad++
			}
		}
		switch {
		case informed == 0:
			s.UnknownVPs++
		case bad > 0:
			s.HijackedVPs++
		default:
			s.LegitVPs++
		}
	}
	return s
}

// History returns the time series of partition change-points: one sample
// per event that changed the legit/hijacked/unknown partition (plus the
// initial sample). Events that leave the partition unchanged are
// coalesced into the preceding sample, so the series is bounded by the
// number of state transitions, not the feed volume. When the feed ran
// quietly past the last transition, a closing sample at the latest event
// time repeats the final partition, so time-axis consumers (vis.Timeline,
// E6 plots) keep spanning the whole observation window.
func (m *Monitor) History() []Sample {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := append([]Sample(nil), m.history...)
	if n := len(out); n > 0 && m.lastAt > out[n-1].Time {
		closing := m.tally
		closing.Time = m.lastAt
		out = append(out, closing)
	}
	return out
}

// VPOrigins reports, per vantage point, the origin AS serving each probe
// address — the data behind the demo's geographic visualization.
func (m *Monitor) VPOrigins() map[bgp.ASN][]bgp.ASN {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[bgp.ASN][]bgp.ASN, len(m.vps))
	for vp, st := range m.vps {
		origins := make([]bgp.ASN, 0, len(m.probes))
		for _, addr := range m.probes {
			if _, e, ok := st.entries.LongestMatch(addr); ok {
				origins = append(origins, e.origin)
			} else {
				origins = append(origins, 0)
			}
		}
		out[vp] = origins
	}
	return out
}

// VantagePoints lists the VPs the monitor has heard from, sorted.
func (m *Monitor) VantagePoints() []bgp.ASN {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]bgp.ASN, 0, len(m.vps))
	for vp := range m.vps {
		out = append(out, vp)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
