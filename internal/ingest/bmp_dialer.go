package ingest

import (
	"errors"
	"fmt"
	"net"
	"time"

	"artemis/internal/bgp"
	"artemis/internal/bgp/bmp"
	"artemis/internal/feeds/dumps"
	"artemis/internal/feeds/feedtypes"
	"artemis/internal/prefix"
)

// BMPSourceName identifies the BMP feed in events.
const BMPSourceName = "bmp"

// bmpDialTimeout bounds the TCP connect to a BMP exporter; the
// supervisor's backoff handles the retries.
const bmpDialTimeout = 5 * time.Second

// BMPPeerEvent reports one monitored peer's session transition, decoded
// from a BMP Peer Up or Peer Down message.
type BMPPeerEvent struct {
	// Collector is the exporting router's name (Initiation sysName).
	Collector string
	// Addr/AS identify the peer whose session changed.
	Addr prefix.Addr
	AS   bgp.ASN
	// Up is true for Peer Up; for Peer Down, Reason carries the RFC 7854
	// reason code.
	Up     bool
	Reason uint8
}

// BMPConfig tunes a BMP station source beyond the dial address.
type BMPConfig struct {
	// Filter is resolved at every (re)dial and applied client-side: BMP
	// has no subscription message, the router mirrors everything, so the
	// station discards non-matching routes before they enter the
	// pipeline. Nil watches everything.
	Filter FilterFunc
	// Now supplies the event-time clock used for EmittedAt (and for
	// SeenAt when a router omits the per-peer timestamp). Nil means
	// EmittedAt mirrors the router's timestamp — correct for replay into
	// virtual-time experiments, where no other clock exists.
	Now func() time.Duration
	// OnPeer, when set, observes every peer session transition. Called
	// from the source's dial goroutine; must not block.
	OnPeer func(BMPPeerEvent)
}

// BMPDialer returns a Dialer speaking BMP station mode (RFC 7854): the
// router is the passive party, listening for the monitoring station to
// connect, then mirroring every peer's UPDATEs as Route Monitoring
// messages. Peer Down messages degrade the source when the last
// monitored session drops — the station is blind then, exactly the
// condition the supervisor's health states exist to surface.
func BMPDialer(addr string, f feedtypes.Filter) Dialer {
	return BMPDialerConfig(addr, BMPConfig{Filter: StaticFilter(f)})
}

// BMPDialerConfig is BMPDialer with peer-transition observation and an
// explicit event-time clock.
func BMPDialerConfig(addr string, cfg BMPConfig) Dialer {
	return DialFunc(func() (Conn, error) {
		nc, err := net.DialTimeout("tcp", addr, bmpDialTimeout)
		if err != nil {
			return nil, err
		}
		var filter feedtypes.Filter
		if cfg.Filter != nil {
			filter = cfg.Filter()
		}
		return &bmpConn{
			nc: nc,
			// RFC 7854 §4.9: peers are assumed 4-octet-AS capable; the
			// encapsulated messages use the modern encoding.
			r:         bmp.NewReader(nc, bgp.DefaultOptions),
			collector: addr,
			filter:    filter,
			now:       cfg.Now,
			onPeer:    cfg.OnPeer,
			peers:     make(map[bmpPeerKey]bool),
		}, nil
	})
}

// bmpPeerKey identifies one monitored peer session.
type bmpPeerKey struct {
	addr prefix.Addr
	as   bgp.ASN
}

// errBMPPeersDown ends a session whose last monitored peer went down:
// the router is still talking to us, but mirrors nothing. Surfacing it
// as a Recv error turns the condition into a supervisor health
// transition (degraded + redial) instead of a silent stall.
var errBMPPeersDown = errors.New("bmp: all monitored peers down")

type bmpConn struct {
	nc        net.Conn
	r         *bmp.Reader
	collector string
	filter    feedtypes.Filter
	now       func() time.Duration
	onPeer    func(BMPPeerEvent)
	// peers tracks sessions currently up; sawPeer latches once the first
	// Peer Up arrives so an initially empty mirror isn't "all down".
	peers   map[bmpPeerKey]bool
	sawPeer bool
}

func (c *bmpConn) Recv(b *feedtypes.Batch) error {
	for {
		msg, err := c.r.Next()
		if err != nil {
			return err
		}
		switch m := msg.(type) {
		case *bmp.Initiation:
			if name, ok := m.SysName(); ok && name != "" {
				c.collector = name
			}
		case *bmp.Termination:
			return errors.New("bmp: termination received")
		case *bmp.PeerUp:
			c.peers[bmpPeerKey{m.Peer.Addr, m.Peer.AS}] = true
			c.sawPeer = true
			if c.onPeer != nil {
				c.onPeer(BMPPeerEvent{Collector: c.collector, Addr: m.Peer.Addr, AS: m.Peer.AS, Up: true})
			}
		case *bmp.PeerDown:
			delete(c.peers, bmpPeerKey{m.Peer.Addr, m.Peer.AS})
			if c.onPeer != nil {
				c.onPeer(BMPPeerEvent{Collector: c.collector, Addr: m.Peer.Addr, AS: m.Peer.AS, Reason: m.Reason})
			}
			if c.sawPeer && len(c.peers) == 0 {
				return fmt.Errorf("%w (last: %s AS%d reason %d)", errBMPPeersDown, m.Peer.Addr, m.Peer.AS, m.Reason)
			}
		case *bmp.RouteMonitoring:
			if c.convert(m, b); len(b.Events) > 0 {
				return nil
			}
		}
		// Stats reports and unmatched route monitoring fall through to the
		// next message.
	}
}

// convert decodes one mirrored UPDATE's matching routes into b.
func (c *bmpConn) convert(m *bmp.RouteMonitoring, b *feedtypes.Batch) {
	u := m.Update
	if u == nil {
		return
	}
	seen, emitted := c.times(m.Peer.Timestamp)
	for _, p := range u.Withdrawn {
		if !c.filter.Match(p) {
			continue
		}
		b.Append(feedtypes.Event{
			Source:       BMPSourceName,
			Collector:    c.collector,
			VantagePoint: m.Peer.AS,
			Kind:         feedtypes.Withdraw,
			Prefix:       p,
			SeenAt:       seen,
			EmittedAt:    emitted,
		})
	}
	if path, ok := u.ASPath(); ok {
		// Copy the decoded path into the batch's arena once, on the first
		// matching NLRI; every NLRI of this update shares it, like the
		// vantage point shares one route.
		var shared []bgp.ASN
		for _, p := range u.NLRI {
			if !c.filter.Match(p) {
				continue
			}
			if shared == nil {
				shared = b.AppendPath(path)
			}
			b.Append(feedtypes.Event{
				Source:       BMPSourceName,
				Collector:    c.collector,
				VantagePoint: m.Peer.AS,
				Kind:         feedtypes.Announce,
				Prefix:       p,
				Path:         shared,
				SeenAt:       seen,
				EmittedAt:    emitted,
			})
		}
	}
}

// times derives the event clocks from the per-peer header timestamp:
// SeenAt is when the router saw the route change (its own clock, mapped
// onto the sim epoch like MRT replay), EmittedAt when the station
// received it (Now, when configured; otherwise the mirror is assumed
// instantaneous).
func (c *bmpConn) times(ts time.Time) (seen, emitted time.Duration) {
	if c.now != nil {
		emitted = c.now()
	}
	if ts.IsZero() {
		// Router declined to timestamp (allowed by RFC 7854): the best
		// estimate of observation time is arrival time.
		return emitted, emitted
	}
	seen = dumps.SimTimeOf(ts)
	if c.now == nil {
		emitted = seen
	}
	return seen, emitted
}

func (c *bmpConn) Close() error { return c.nc.Close() }
