// Package feedtypes defines the route-event schema shared by every
// monitoring source in the reproduction (RIS-style streaming, BGPmon-style
// XML, Periscope-style looking glasses, and MRT archive dumps), together
// with the prefix filter used for subscriptions.
//
// ARTEMIS's detection latency is "the min of the delays of these sources"
// (§2): every source reduces to this one event type, each stamped with both
// when the route change happened at the vantage point and when the source
// actually made it visible to clients. The difference is the source's
// contribution to detection delay.
//
// # Batch ownership and pooling
//
// Events travel in pooled batches (Batch, BatchPool): event storage plus
// a flat AS-path arena, recycled so the steady-state event path
// allocates nothing per batch. A batch has exactly one owner, and
// handing it on transfers ownership; the last owner releases it. Hub
// publication is the exception: a published slice is valid only for the
// duration of the subscriber callback, and a subscriber that keeps
// events copies them (CopyEvents, or Batch.AppendEvents into a pooled
// batch of its own). BatchPool.SetPoison turns violations of either
// rule into deterministic test failures. See docs/PERFORMANCE.md.
package feedtypes

import (
	"fmt"
	"time"

	"artemis/internal/bgp"
	"artemis/internal/prefix"
)

// Kind distinguishes announcements from withdrawals.
type Kind uint8

const (
	// Announce is a (new or changed) route advertisement.
	Announce Kind = iota
	// Withdraw is a route removal.
	Withdraw
)

func (k Kind) String() string {
	if k == Withdraw {
		return "withdrawal"
	}
	return "announcement"
}

// Event is one observed routing change at a vantage point.
type Event struct {
	// Source identifies the monitoring system ("ris", "bgpmon",
	// "periscope", "dumps").
	Source string
	// Collector names the collector or looking glass within the source.
	Collector string
	// VantagePoint is the AS whose routing view produced the event.
	VantagePoint bgp.ASN
	// Kind is announcement or withdrawal.
	Kind Kind
	// Prefix is the affected prefix.
	Prefix prefix.Prefix
	// Path is the AS path as advertised by the vantage point
	// (Path[0] == VantagePoint, last element is the origin). Empty for
	// withdrawals.
	Path []bgp.ASN
	// SeenAt is the simulation time the vantage point's route changed.
	SeenAt time.Duration
	// EmittedAt is the simulation time the source delivered the event to
	// subscribers; EmittedAt - SeenAt is the source's pipeline latency.
	EmittedAt time.Duration
}

// Origin returns the origin AS of an announcement.
func (e *Event) Origin() (bgp.ASN, bool) {
	if e.Kind != Announce || len(e.Path) == 0 {
		return 0, false
	}
	return e.Path[len(e.Path)-1], true
}

func (e *Event) String() string {
	return fmt.Sprintf("[%s/%s vp=%d] %s %s path=%v at %v",
		e.Source, e.Collector, uint32(e.VantagePoint), e.Kind, e.Prefix, e.Path, e.EmittedAt)
}

// Filter selects the prefixes a subscriber cares about, mirroring the
// prefix filters of RIS Live: exact matches plus optionally more-specific
// (sub-prefix hijacks!) and less-specific (super-prefix squatting)
// announcements.
type Filter struct {
	// Prefixes to watch. Empty means match everything.
	Prefixes []prefix.Prefix
	// MoreSpecific also matches prefixes contained in a watched prefix.
	MoreSpecific bool
	// LessSpecific also matches prefixes containing a watched prefix.
	LessSpecific bool
}

// MatchAll reports whether the filter matches every prefix.
func (f Filter) MatchAll() bool { return len(f.Prefixes) == 0 }

// Match reports whether p passes the filter.
func (f Filter) Match(p prefix.Prefix) bool {
	if f.MatchAll() {
		return true
	}
	for _, w := range f.Prefixes {
		if w == p {
			return true
		}
		if f.MoreSpecific && w.Contains(p) {
			return true
		}
		if f.LessSpecific && p.Contains(w) {
			return true
		}
	}
	return false
}

// Source is a monitoring feed that can be subscribed to in-process. The
// returned cancel function detaches the subscriber.
type Source interface {
	Name() string
	Subscribe(f Filter, fn func(Event)) (cancel func())
}
