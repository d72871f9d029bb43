package ingest

import (
	"io"

	"artemis/internal/bgp"
	"artemis/internal/bgp/mrt"
	"artemis/internal/feeds/bgpmon"
	"artemis/internal/feeds/dumps"
	"artemis/internal/feeds/feedtypes"
	"artemis/internal/feeds/ris"
)

// maxRecvBatch caps how many buffered stream events are coalesced into
// one batch when a feed runs hot — the same bound the daemon's old pump
// loop used.
const maxRecvBatch = 256

// FilterFunc supplies a subscription filter. Dialers call it on every
// (re)dial, so a provider backed by live configuration makes a reconnect
// — including a deliberate Supervisor.Bounce — pick up filter changes
// (hot-added owned prefixes) without restarting the source.
type FilterFunc func() feedtypes.Filter

// StaticFilter adapts a fixed filter to FilterFunc.
func StaticFilter(f feedtypes.Filter) FilterFunc {
	return func() feedtypes.Filter { return f }
}

// RISDialer returns a Dialer for a RIS-style websocket endpoint
// (ws://host:port/v1/ws). The per-event stream is coalesced into batches:
// one event minimum, then whatever the client has already buffered, so a
// quiet feed stays low-latency and a busy one amortizes per-delivery
// cost.
func RISDialer(url string, f feedtypes.Filter) Dialer {
	return RISDialerDynamic(url, StaticFilter(f))
}

// RISDialerDynamic is RISDialer with the subscription filter resolved at
// every (re)dial. RIS filtering is server-side (the filter travels in the
// subscribe message), so filter changes take effect on the next dial;
// Supervisor.Bounce forces one.
func RISDialerDynamic(url string, f FilterFunc) Dialer {
	return DialFunc(func() (Conn, error) {
		cli, err := ris.DialClient(url, f())
		if err != nil {
			return nil, err
		}
		return &chanConn{events: cli.Events(), close: cli.Close, err: cli.Err}, nil
	})
}

// BGPmonDialer returns a Dialer for a BGPmon-style XML TCP stream
// (host:port), batched like RISDialer.
func BGPmonDialer(addr string, f feedtypes.Filter) Dialer {
	return BGPmonDialerDynamic(addr, StaticFilter(f))
}

// BGPmonDialerDynamic is BGPmonDialer with the filter resolved at every
// (re)dial (the BGPmon client filters client-side, but binds the filter
// per connection).
func BGPmonDialerDynamic(addr string, f FilterFunc) Dialer {
	return DialFunc(func() (Conn, error) {
		cli, err := bgpmon.DialClient(addr, f())
		if err != nil {
			return nil, err
		}
		return &chanConn{events: cli.Events(), close: cli.Close, err: cli.Err}, nil
	})
}

// chanConn adapts a per-event channel client (the RIS/BGPmon network
// clients) to the batch Conn interface, coalescing whatever the client
// has already buffered into one batch. The clients decode a fresh Path
// per event, so each event's path passes to the batch as is.
type chanConn struct {
	events <-chan feedtypes.Event
	close  func() error
	err    func() error
}

func (c *chanConn) Recv(b *feedtypes.Batch) error {
	ev, ok := <-c.events
	if !ok {
		if err := c.err(); err != nil {
			return err
		}
		return io.EOF
	}
	b.Append(ev)
	for len(b.Events) < maxRecvBatch {
		select {
		case next, ok := <-c.events:
			if !ok {
				// Deliver what we have; the next Recv reports why the
				// stream ended.
				return nil
			}
			b.Append(next)
		default:
			return nil
		}
	}
	return nil
}

func (c *chanConn) Close() error { return c.close() }

// ReplayDialer replays pre-chunked batches as one finite source ending in
// ErrDone — deterministic ingest of captured feed data, and the workload
// generator for BenchmarkIngestFanIn. Combine with the Blocking option so
// the replay is flow-controlled instead of shed.
func ReplayDialer(batches [][]feedtypes.Event) Dialer {
	return DialFunc(func() (Conn, error) {
		return &replayConn{batches: batches}, nil
	})
}

type replayConn struct {
	batches [][]feedtypes.Event
	i       int
}

func (c *replayConn) Recv(b *feedtypes.Batch) error {
	if c.i >= len(c.batches) {
		return ErrDone
	}
	// The captured batches outlive this conn (a redial replays them
	// again), so they are copied rather than handed over.
	b.AppendEvents(c.batches[c.i])
	c.i++
	return nil
}

func (c *replayConn) Close() error { return nil }

// MRTReplayDialer replays an MRT archive (RFC 6396 update or RIB files,
// as written by internal/feeds/dumps) as one finite source: each BGP4MP
// record becomes the events of its UPDATE, each RIB entry one
// announcement per peer route. open is called on every (re)dial, so a
// replay interrupted by Remove can be restarted. The stream ends with
// ErrDone. Combine with Blocking.
func MRTReplayDialer(open func() (io.ReadCloser, error), collector string) Dialer {
	return DialFunc(func() (Conn, error) {
		rc, err := open()
		if err != nil {
			return nil, err
		}
		return &mrtConn{rc: rc, r: mrt.NewReader(rc), collector: collector}, nil
	})
}

type mrtConn struct {
	rc        io.ReadCloser
	r         *mrt.Reader
	collector string
	// peers threads the dump's PEER_INDEX_TABLE through to RIB entries so
	// each route's vantage point comes from the peer record it names, not
	// from path[0] — route-server peers do not prepend themselves, so the
	// first path hop is not necessarily the peer.
	peers mrt.PeerResolver
}

func (c *mrtConn) Recv(b *feedtypes.Batch) error {
	for {
		rec, err := c.r.Next()
		if err == io.EOF {
			return ErrDone
		}
		if err != nil {
			return err
		}
		switch m := rec.(type) {
		case *mrt.BGP4MPMessage:
			u, ok := m.Message.(*bgp.Update)
			if !ok {
				continue
			}
			at := dumps.SimTimeOf(m.Timestamp)
			for _, p := range u.Withdrawn {
				b.Append(feedtypes.Event{
					Source:       dumps.SourceName,
					Collector:    c.collector,
					VantagePoint: m.PeerAS,
					Kind:         feedtypes.Withdraw,
					Prefix:       p,
					SeenAt:       at,
					EmittedAt:    at,
				})
			}
			if path, ok := u.ASPath(); ok && len(u.NLRI) > 0 {
				// Every NLRI of the update shares one arena copy of its path.
				path = b.AppendPath(path)
				for _, p := range u.NLRI {
					b.Append(feedtypes.Event{
						Source:       dumps.SourceName,
						Collector:    c.collector,
						VantagePoint: m.PeerAS,
						Kind:         feedtypes.Announce,
						Prefix:       p,
						Path:         path,
						SeenAt:       at,
						EmittedAt:    at,
					})
				}
			}
		case *mrt.PeerIndexTable:
			c.peers.Observe(m)
			continue
		case *mrt.RIBEntry:
			at := dumps.SimTimeOf(m.Timestamp)
			for _, rt := range m.Routes {
				u := &bgp.Update{Attrs: rt.Attrs}
				path, ok := u.ASPath()
				if !ok {
					continue
				}
				peer, err := c.peers.Peer(rt.PeerIndex)
				if err != nil {
					return err
				}
				b.Append(feedtypes.Event{
					Source:       dumps.SourceName,
					Collector:    c.collector,
					VantagePoint: peer.AS,
					Kind:         feedtypes.Announce,
					Prefix:       m.Prefix,
					Path:         b.AppendPath(path),
					SeenAt:       dumps.SimTimeOf(rt.Originated),
					EmittedAt:    at,
				})
			}
		default:
			continue
		}
		if len(b.Events) > 0 {
			return nil
		}
	}
}

func (c *mrtConn) Close() error { return c.rc.Close() }
