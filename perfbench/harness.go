package main

import (
	"context"
	"fmt"
	"net"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"artemis/internal/rib"
	"artemis/pkg/artemis"
)

// epoch is the benchmark's monotonic time origin; every timestamp the
// benchmark records is nanoseconds since it.
var epoch = time.Now()

func nowNS() int64 { return int64(time.Since(epoch)) }

// alertRec is one alert received on Node.Subscribe.
type alertRec struct {
	at     int64
	hijack int32 // matched planted hijack, or -1
	tenant string
	typ    string
	pfx    string
	owned  string
}

// mitRec is one mitigation outcome received on Node.Subscribe.
type mitRec struct {
	at          int64
	hijack      int32
	tenant      string
	prefixes    []string
	announced   []string
	competitive bool
	err         string
}

// consumer drains the node's alert and mitigation events. It is the
// only writer of its slices until done closes.
type consumer struct {
	sub     *artemis.Subscription
	index   map[string]int32
	alerts  []alertRec
	mits    []mitRec
	matched []atomic.Int32 // alerts received per planted hijack
	lastAt  []atomic.Int64 // when the latest of them arrived
	nAlerts atomic.Int64   // alerts matching a planted hijack
	nMits   atomic.Int64
	done    chan struct{}
}

func newConsumer(sub *artemis.Subscription, in *inputs) *consumer {
	c := &consumer{sub: sub, index: in.hijackIndex, done: make(chan struct{}),
		matched: make([]atomic.Int32, len(in.hijacks)), lastAt: make([]atomic.Int64, len(in.hijacks))}
	go c.loop()
	return c
}

func (c *consumer) loop() {
	defer close(c.done)
	for ev := range c.sub.C {
		t := nowNS()
		switch ev.Kind {
		case artemis.KindAlert:
			a := ev.Alert
			id, ok := c.index[alertKey(a.Type, a.Prefix, a.Origin)]
			if !ok {
				id = -1
			}
			c.alerts = append(c.alerts, alertRec{at: t, hijack: id, tenant: a.Tenant, typ: a.Type, pfx: a.Prefix, owned: a.Owned})
			if id >= 0 {
				c.matched[id].Add(1)
				c.lastAt[id].Store(t)
				c.nAlerts.Add(1)
			}
		case artemis.KindMitigation:
			m := ev.Mitigation
			id, ok := c.index[alertKey(m.Alert.Type, m.Alert.Prefix, m.Alert.Origin)]
			if !ok {
				id = -1
			}
			c.mits = append(c.mits, mitRec{at: t, hijack: id, tenant: m.Alert.Tenant, prefixes: m.Prefixes,
				announced: m.Announced, competitive: m.Competitive, err: m.Error})
			c.nMits.Add(1)
		}
	}
}

// announceCall is one AnnounceRoute call on the benchmark's injector.
type announceCall struct {
	pfx        string
	start, end int64
}

// injector is the node's mitigation southbound: it records every call
// and, when echo is set, hands the announced prefix back to the feed so
// the announcement returns from vantage points as it would propagate.
type injector struct {
	mu        sync.Mutex
	calls     []announceCall
	withdraws int
	n         atomic.Int64
	echo      func(string)
}

func (i *injector) AnnounceRoute(p string) error {
	start := nowNS()
	if i.echo != nil {
		i.echo(p)
	}
	end := nowNS()
	i.mu.Lock()
	i.calls = append(i.calls, announceCall{pfx: p, start: start, end: end})
	i.mu.Unlock()
	i.n.Add(1)
	return nil
}

func (i *injector) WithdrawRoute(string) error {
	i.mu.Lock()
	i.withdraws++
	i.mu.Unlock()
	return nil
}

// router is one loopback BMP exporter: it accepts the node's station,
// writes the greeting and the ready message, and then belongs to the
// feed, which writes with blocking TCP writes.
type router struct {
	ln   net.Listener
	conn net.Conn
	err  error
	done chan struct{} // closed once the accept goroutine has returned
}

func newRouter(greeting, ready []byte) (*router, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	r := &router{ln: ln, done: make(chan struct{})}
	go func() {
		defer close(r.done)
		c, err := ln.Accept()
		if err != nil {
			r.err = err
			return
		}
		r.conn = c
		if _, err = c.Write(greeting); err == nil {
			_, err = c.Write(ready)
		}
		r.err = err
	}()
	return r, nil
}

func (r *router) close() {
	r.ln.Close() // unblocks a pending Accept
	<-r.done
	if r.conn != nil {
		r.conn.Close()
	}
}

// liveNode is one assembled node plus the benchmark's taps on it.
type liveNode struct {
	node    *artemis.Node
	cons    *consumer
	inj     *injector
	routers []*router
	cancel  context.CancelFunc
	runDone chan error
}

// setup assembles a node and waits until it is ready: Run started,
// every BMP station connected with its greeting processed, the RIB
// bootstrapped. It returns the wall time from artemis.New to ready.
func setup(in *inputs, ribPath string, hook func(*artemis.Config), echo func(string)) (*liveNode, time.Duration, error) {
	runtime.GC()
	ln := &liveNode{inj: &injector{echo: echo}, runDone: make(chan error, 1)}
	var addrs []string
	if in.spec.feed == feedBMP {
		for r := 0; r < 2; r++ {
			rt, err := newRouter(in.greeting[r], in.ready[r])
			if err != nil {
				ln.teardown()
				return nil, 0, err
			}
			ln.routers = append(ln.routers, rt)
			addrs = append(addrs, rt.ln.Addr().String())
		}
	}
	cfg := in.config(addrs, ribPath)
	if hook != nil {
		hook(cfg)
	}
	start := time.Now()
	node, err := artemis.New(cfg, artemis.WithLogf(func(string, ...any) {}), artemis.WithRouteInjector(ln.inj))
	if err != nil {
		ln.teardown()
		return nil, 0, err
	}
	ln.node = node
	ln.cons = newConsumer(node.Subscribe(artemis.KindAlert|artemis.KindMitigation, subBuffer), in)
	ctx, cancel := context.WithCancel(context.Background())
	ln.cancel = cancel
	go func() { ln.runDone <- node.Run(ctx) }()
	if in.spec.feed == feedInject {
		if err := node.Inject(in.readyObs); err != nil {
			ln.teardown()
			return nil, 0, err
		}
		return ln, time.Since(start), nil
	}
	deadline := time.Now().Add(30 * time.Second)
	for _, rt := range ln.routers {
		select {
		case <-rt.done:
			if rt.err != nil {
				ln.teardown()
				return nil, 0, fmt.Errorf("bmp router: %w", rt.err)
			}
		case <-time.After(time.Until(deadline)):
			ln.teardown()
			return nil, 0, fmt.Errorf("bmp station never connected")
		}
	}
	for !ln.ready() {
		if time.Now().After(deadline) {
			ln.teardown()
			return nil, 0, fmt.Errorf("bmp greeting never processed")
		}
		time.Sleep(100 * time.Microsecond)
	}
	return ln, time.Since(start), nil
}

// ready reports whether every source has delivered its ready message.
func (ln *liveNode) ready() bool {
	h := ln.node.Health()
	if len(h.Sources) < len(ln.routers) {
		return false
	}
	for _, s := range h.Sources {
		if s.Events < 1 {
			return false
		}
	}
	return true
}

// teardown drains the node and stops every goroutine the harness
// started for it.
func (ln *liveNode) teardown() {
	if ln.node != nil {
		ln.node.Drain()
		ln.cancel()
		<-ln.runDone
		<-ln.cons.done
	}
	for _, rt := range ln.routers {
		rt.close()
	}
}

// writeRIB writes the synthetic RIB snapshot the wire-bmp node
// bootstraps from, under dir.
func writeRIB(in *inputs, dir string, seed int64) (string, error) {
	f, err := os.CreateTemp(dir, "rib-*.mrt")
	if err != nil {
		return "", err
	}
	synth := rib.SynthConfig{V4: in.spec.ribV4, V6: in.spec.ribV6, Peers: 4, Seed: seed}
	if err := rib.WriteSynth(f, synth); err != nil {
		f.Close()
		return "", err
	}
	return f.Name(), f.Close()
}
