package main

import (
	"fmt"
	"math/rand"
	"time"

	"artemis/internal/bgp"
	"artemis/internal/bgp/bmp"
	"artemis/internal/prefix"
	"artemis/pkg/artemis"
)

// feedKind selects how route changes reach the node.
type feedKind int

const (
	// feedBMP: two loopback BMP "routers" the node's stations dial.
	feedBMP feedKind = iota
	// feedInject: Node.Inject from one feeder goroutine.
	feedInject
)

// workloadSpec fixes one workload's shape. Rates are in logical route
// changes per second (a change mirrored by both BMP routers is one
// logical change and two offered ones).
type workloadSpec struct {
	name string
	feed feedKind
	// tenants > 0 makes a hosted node of that many tenants, each owning
	// owned*coOwners/tenants of the groups; 0 is one default tenant.
	tenants, coOwners int
	// owned is the number of owned prefixes (prefix groups).
	owned int
	// vps is the number of vantage points; BMP splits them over two
	// routers with a shared middle third.
	vps int
	// unrelated is the share of background changes outside owned space.
	unrelated float64
	// both is the share of owned-space changes mirrored by both routers.
	both float64
	// withdraw is the share of background changes that are withdrawals.
	withdraw float64
	// hijackGap is the logical distance between planted hijacks;
	// hijackCopies the vantage points announcing each one.
	hijackGap, hijackCopies int
	// mix weighs exact-origin, sub-prefix and squat hijacks.
	mix [3]float64
	// returnVPs vantage points echo every mitigation announcement back.
	returnVPs int
	// withdrawLag is how many logical changes after a hijack its
	// withdrawal follows (0: hijacks are never withdrawn).
	withdrawLag int
	// reconfigEvery paces AddPrefixes/RemovePrefixes (0: none).
	reconfigEvery time.Duration
	// rate is the latency phase's open-loop rate; satCap bounds the
	// saturation input, in logical changes per second of the phase.
	rate, satCap float64
	// ribV4/ribV6 size the synthetic RIB snapshot (0: no rib: block).
	ribV4, ribV6 int
	// setups is how many times setup_s is measured.
	setups int
}

// Workload definitions. The comments say why each exists; METRICS.md
// carries the same reasoning with the layer table.
var workloads = map[string]workloadSpec{
	// The paper's path: feed bytes in, alert out. The only workload where
	// BMP decode, the station filter, ingest copy/dedup and the RIB tee
	// and bootstrap do most of the work.
	"wire-bmp": {
		name: "wire-bmp", feed: feedBMP,
		owned: 1024, vps: 24,
		unrelated: 0.9, both: 0.25, withdraw: 0.1,
		hijackGap: 12, hijackCopies: 2, mix: [3]float64{0.5, 0.3, 0.2},
		rate: 12000, satCap: 70000,
		ribV4: 40000, ribV6: 8000,
		setups: 5,
	},
	// Hosted detection: policy-table routing, per-tenant classification
	// fan-out and per-tenant monitor folds dominate; bmp and ingest are
	// bypassed.
	"inject-tenants": {
		name: "inject-tenants", feed: feedInject,
		tenants: 1000, coOwners: 4, owned: 2500, vps: 64,
		withdraw:  0.1,
		hijackGap: 60, hijackCopies: 1, mix: [3]float64{0.5, 0.3, 0.2},
		rate: 15000, satCap: 80000,
		setups: 5,
	},
	// The incident path: alert commits, self-announcement registration,
	// mitigation dispatch, echoes, withdrawals and live reconfiguration.
	"hijack-storm": {
		name: "hijack-storm", feed: feedInject,
		owned: 512, vps: 32,
		withdraw:  0.05,
		hijackGap: 40, hijackCopies: 8, mix: [3]float64{1, 1, 1},
		returnVPs: 8, withdrawLag: 4000, reconfigEvery: time.Second,
		rate: 50000, satCap: 340000,
		setups: 15,
	},
}

// workloadNames lists the workloads in the order BENCHMARK.json does.
var workloadNames = []string{"wire-bmp", "inject-tenants", "hijack-storm"}

// tiny shrinks a workload for the self-tests: same mix, a fraction of
// the state and rate.
func (w workloadSpec) tiny() workloadSpec {
	if w.tenants > 0 {
		w.tenants, w.owned = 40, 100
	} else {
		w.owned = 64
	}
	w.vps = 12
	w.rate /= 10
	w.satCap /= 20
	w.hijackGap /= 2
	if w.withdrawLag > 0 {
		w.withdrawLag = 400
	}
	if w.ribV4 > 0 {
		w.ribV4, w.ribV6 = 2000, 400
	}
	w.setups = 2
	return w
}

// Hijack types, in Alert.Type spelling.
const (
	typeExact  = "exact-origin"
	typeSub    = "sub-prefix"
	typeSquat  = "squat"
	legitASN   = 65000
	hijackBase = 4_000_000_000 // hijacker i announces as hijackBase+i
	vpBase     = 64700
	// sourceQueue is the BMP sources' queue depth in batches.
	sourceQueue = 1 << 15
)

// group is one owned prefix and who owns it.
type group struct {
	pfx    prefix.Prefix
	text   string
	origin uint32
	owners []int32 // tenant indices
}

// hijack is one planted incident.
type hijack struct {
	typ         string
	pfx, owned  prefix.Prefix
	origin      uint32
	group       int32
	phase       int8 // phaseSat or phaseLat
	idx         int  // logical position of the first copy in its phase
	expect      []string
	competitive bool
	// marker hijacks close a phase; they are checked like any other but
	// carry no latency sample.
	marker bool
}

const (
	phaseSat = 0
	phaseLat = 1
)

// msgMeta describes one BMP message or one Inject observation.
type msgMeta struct {
	logical int32 // logical position in the phase
	hijack  int32 // hijack this message announces, or -1
	routes  uint8 // route changes carried
	owned   uint8 // of them, in owned space (pass the station filter)
	sub     uint8 // of them, strict more-specifics of owned prefixes
	hijacks uint8 // of them, hijack announcements
}

// wireStream is one router's pre-marshaled BMP stream for a phase.
type wireStream struct {
	bytes []byte
	off   []int // message i is bytes[off[i]:off[i+1]]
	meta  []msgMeta
}

func (w *wireStream) add(m bmp.Message, meta msgMeta) {
	b, err := bmp.Marshal(m, bgp.DefaultOptions)
	if err != nil {
		panic(fmt.Sprintf("perfbench: marshal: %v", err)) // generator bug
	}
	if len(w.off) == 0 {
		w.off = append(w.off, 0)
	}
	w.bytes = append(w.bytes, b...)
	w.off = append(w.off, len(w.bytes))
	w.meta = append(w.meta, meta)
}

func (w *wireStream) msgs() int { return len(w.meta) }

// phaseInput is one phase's pre-built stream.
type phaseInput struct {
	n int // logical changes
	// inject feeds
	obs  []obsRec
	meta []msgMeta
	// bmp feeds, one per router
	wire [2]wireStream
	// markers end a phase: markers[r] is router r's marker hijack (one
	// in total on Inject), carried by markerWire[r] or markerObs[0]. Each
	// router's stream is ordered, so its marker's alert proves everything
	// it sent before was processed.
	markers    []int32
	markerObs  []artemis.RouteObservation
	markerWire [2]wireStream
}

// obsRec is one pre-built Inject observation in pointer-free form (the
// collector does not scan millions of them); the feed expands a batch
// into RouteObservations right before each Inject call.
type obsRec struct {
	vp       uint16
	withdraw bool
	plen     uint8
	pfx      int32 // index into inputs.texts
	path     int32 // offset into inputs.paths
}

// inputs is everything a run feeds the node, built before timing.
type inputs struct {
	spec        workloadSpec
	groups      []group
	tenants     []string
	tenantGrps  [][]int32
	hijacks     []hijack
	vpASN       []uint32
	routerVPs   [2][]int // vantage point indices per router
	greeting    [2][]byte
	ready       [2][]byte
	readyObs    artemis.RouteObservation
	phases      [2]phaseInput
	reconfig    []string // prefixes toggled by the reconfiguration loop
	hijackIndex map[string]int32
	// texts and paths back the obsRec streams.
	texts []string
	paths []uint32
}

// expand fills buf with the observations recs describe.
func (in *inputs) expand(buf []artemis.RouteObservation, recs []obsRec) []artemis.RouteObservation {
	buf = buf[:0]
	for _, o := range recs {
		ob := artemis.RouteObservation{VantagePoint: in.vpASN[o.vp], Prefix: in.texts[o.pfx], Withdraw: o.withdraw}
		if !o.withdraw {
			ob.Path = in.paths[o.path : o.path+int32(o.plen) : o.path+int32(o.plen)]
		}
		buf = append(buf, ob)
	}
	return buf
}

// generator draws the seeded stream.
type generator struct {
	in      *inputs
	rnd     *rand.Rand
	tsBase  time.Time
	tsSeq   int64
	transit []uint32
	arena   []uint32
	textIdx map[prefix.Prefix]int32
	pathIdx map[[2]uint32][2]int32
}

func buildInputs(spec workloadSpec, seed int64, satSeconds, latSeconds float64) *inputs {
	in := &inputs{spec: spec, hijackIndex: make(map[string]int32)}
	g := &generator{
		in:      in,
		rnd:     rand.New(rand.NewSource(seed)),
		tsBase:  time.Unix(1466000000, 0).UTC(),
		transit: []uint32{174, 1299, 2914, 3257, 3356, 6453, 6461, 6762, 6939, 7018, 9002, 12956},
		textIdx: make(map[prefix.Prefix]int32),
		pathIdx: make(map[[2]uint32][2]int32),
	}
	g.layout()
	for v := 0; v < spec.vps; v++ {
		in.vpASN = append(in.vpASN, uint32(vpBase+v))
	}
	// Router A mirrors the first two thirds of the vantage points, router
	// B the last two thirds; the middle third is seen by both.
	third := spec.vps / 3
	for v := 0; v < spec.vps; v++ {
		if v < 2*third {
			in.routerVPs[0] = append(in.routerVPs[0], v)
		}
		if v >= third {
			in.routerVPs[1] = append(in.routerVPs[1], v)
		}
	}
	for i := 0; i < 64; i++ {
		in.reconfig = append(in.reconfig, fmt.Sprintf("172.%d.%d.0/24", 16+i/256, i%256))
	}
	if spec.feed == feedBMP {
		g.greetings()
	} else {
		grp := &in.groups[0]
		in.readyObs = artemis.RouteObservation{VantagePoint: in.vpASN[0], Prefix: grp.text,
			Path: g.path(0, grp.origin)}
	}
	satN := int(spec.satCap * satSeconds)
	latN := int(spec.rate * latSeconds)
	g.phase(phaseSat, satN)
	g.markers(phaseSat)
	g.phase(phaseLat, latN)
	g.markers(phaseLat)
	return in
}

// layout places owned prefixes one per /21 (v4) or /45 (v6) slot, so a
// squat's covering prefix (one bit shorter) covers exactly one owned
// prefix; every eighth group is IPv6.
func (g *generator) layout() {
	spec := g.in.spec
	for i := 0; i < spec.owned; i++ {
		var p prefix.Prefix
		if i%8 == 7 {
			bits := 46 + g.rnd.Intn(3)
			hi := uint64(0x20010db8)<<32 | uint64(i)<<(64-45)
			p = prefix.New(prefix.AddrFrom16(hi, 0), bits)
		} else {
			bits := 22 + g.rnd.Intn(3)
			p = prefix.New(prefix.AddrFrom4(10<<24|uint32(i)<<11), bits)
		}
		origin := uint32(legitASN)
		if spec.tenants > 0 {
			origin = uint32(200000 + i)
		}
		g.in.groups = append(g.in.groups, group{pfx: p, text: p.String(), origin: origin})
	}
	if spec.tenants == 0 {
		return
	}
	// Hosted: owner slot k of group i is tenant (i + k*tenants/coOwners)
	// mod tenants, so the coOwners owners of a group are distinct and
	// every tenant owns owned*coOwners/tenants groups.
	g.in.tenantGrps = make([][]int32, spec.tenants)
	for t := 0; t < spec.tenants; t++ {
		g.in.tenants = append(g.in.tenants, fmt.Sprintf("t%04d", t))
	}
	stride := spec.tenants / spec.coOwners
	for i := range g.in.groups {
		for k := 0; k < spec.coOwners; k++ {
			t := (i + k*stride) % spec.tenants
			g.in.groups[i].owners = append(g.in.groups[i].owners, int32(t))
			g.in.tenantGrps[t] = append(g.in.tenantGrps[t], int32(i))
		}
	}
}

// path draws an AS path from vantage point vp to origin, carved from a
// chunked arena so millions of paths cost a handful of allocations.
func (g *generator) path(vp int, origin uint32) []uint32 {
	if cap(g.arena)-len(g.arena) < 8 {
		g.arena = make([]uint32, 0, 1<<16)
	}
	start := len(g.arena)
	g.arena = append(g.arena, g.in.vpASN[vp])
	for h := g.rnd.Intn(3); h >= 0; h-- {
		g.arena = append(g.arena, g.transit[g.rnd.Intn(len(g.transit))])
	}
	g.arena = append(g.arena, origin)
	return g.arena[start:len(g.arena):len(g.arena)]
}

func (g *generator) ts() time.Time {
	g.tsSeq++
	return g.tsBase.Add(time.Duration(g.tsSeq) * time.Microsecond)
}

func (g *generator) peer(vp int, ts time.Time) bmp.PerPeerHeader {
	return bmp.PerPeerHeader{
		Addr:      prefix.AddrFrom4(0xc0000200 + uint32(vp)), // 192.0.2.x
		AS:        bgp.ASN(g.in.vpASN[vp]),
		BGPID:     0x0a000001 + uint32(vp),
		Timestamp: ts,
	}
}

// greetings builds each router's Initiation + Peer Up table and the
// ready message whose delivery proves the greeting was processed.
func (g *generator) greetings() {
	local := prefix.MustParseAddr("192.0.2.1")
	for r := 0; r < 2; r++ {
		var ws wireStream
		ws.add(bmp.NewInitiation(fmt.Sprintf("router-%c", 'a'+r), "perfbench"), msgMeta{})
		for _, vp := range g.in.routerVPs[r] {
			ws.add(&bmp.PeerUp{
				Peer: g.peer(vp, time.Time{}), LocalAddr: local, LocalPort: 179, RemotePort: uint16(30000 + vp),
				SentOpen: bgp.NewOpen(legitASN, 90, local),
				RecvOpen: bgp.NewOpen(bgp.ASN(g.in.vpASN[vp]), 90, prefix.AddrFrom4(0xc0000200+uint32(vp))),
			}, msgMeta{})
		}
		g.in.greeting[r] = ws.bytes
		var ready wireStream
		grp := &g.in.groups[0]
		vp := g.in.routerVPs[r][0]
		ready.add(g.announce(vp, g.ts(), g.path(vp, grp.origin), grp.pfx), msgMeta{})
		g.in.ready[r] = ready.bytes
	}
}

func (g *generator) announce(vp int, ts time.Time, path []uint32, nlri ...prefix.Prefix) *bmp.RouteMonitoring {
	asp := make([]bgp.ASN, len(path))
	for i, a := range path {
		asp[i] = bgp.ASN(a)
	}
	return &bmp.RouteMonitoring{Peer: g.peer(vp, ts), Update: &bgp.Update{
		Attrs: []bgp.PathAttr{
			&bgp.OriginAttr{Value: bgp.OriginIGP},
			bgp.NewASPath(asp),
			&bgp.NextHopAttr{Addr: prefix.AddrFrom4(0xc0000200 + uint32(vp))},
		},
		NLRI: nlri,
	}}
}

func (g *generator) withdrawMsg(vp int, ts time.Time, pfx ...prefix.Prefix) *bmp.RouteMonitoring {
	return &bmp.RouteMonitoring{Peer: g.peer(vp, ts), Update: &bgp.Update{Withdrawn: pfx}}
}

// change is one logical route change before encoding.
type change struct {
	pfx      []prefix.Prefix // one, or several sharing a path (unrelated BMP churn)
	vp       int
	path     []uint32 // nil for a withdrawal
	routers  uint8    // bit 0 router A, bit 1 router B
	hijack   int32    // hijack this change announces, or -1
	owned    bool
	sub      bool
	isHijack bool
}

// pending is a queued hijack copy or withdrawal.
type pending struct {
	at int
	c  change
}

// phase generates n logical changes: background mix, a hijack every
// hijackGap positions (its copies on consecutive positions), and each
// hijack's withdrawals withdrawLag positions later.
func (g *generator) phase(ph int8, n int) {
	spec := g.in.spec
	pi := &g.in.phases[ph]
	pi.n = n
	var copies, withdraws []pending
	for i := 0; i < n; i++ {
		if i%spec.hijackGap == spec.hijackGap/2 {
			copies = append(copies, g.plant(ph, i)...)
		}
		var c change
		switch {
		case len(copies) > 0:
			c = copies[0].c
			copies = copies[1:]
			if spec.withdrawLag > 0 {
				w := change{pfx: c.pfx, vp: c.vp, routers: c.routers, hijack: -1, owned: true, sub: c.sub}
				withdraws = append(withdraws, pending{at: i + spec.withdrawLag, c: w})
			}
		case len(withdraws) > 0 && withdraws[0].at <= i:
			c = withdraws[0].c
			withdraws = withdraws[1:]
		default:
			c = g.background()
		}
		g.emit(pi, i, c)
	}
}

// plant creates one hijack and returns its copies.
func (g *generator) plant(ph int8, at int) []pending {
	spec := g.in.spec
	gi := int32(g.rnd.Intn(len(g.in.groups)))
	grp := &g.in.groups[gi]
	id := int32(len(g.in.hijacks))
	h := hijack{group: gi, owned: grp.pfx, origin: uint32(hijackBase + int(id)), phase: ph, idx: at}
	maxLen := 24
	if grp.pfx.Is6() {
		maxLen = 48
	}
	r := g.rnd.Float64() * (spec.mix[0] + spec.mix[1] + spec.mix[2])
	switch {
	case r >= spec.mix[0]+spec.mix[1]:
		h.typ, h.pfx = typeSquat, grp.pfx.Parent()
	case r >= spec.mix[0] && grp.pfx.Bits() < maxLen:
		h.typ = typeSub
		bits := grp.pfx.Bits() + 1 + g.rnd.Intn(maxLen-grp.pfx.Bits())
		subs, _ := grp.pfx.Deaggregate(bits)
		h.pfx = subs[g.rnd.Intn(len(subs))]
	default:
		h.typ, h.pfx = typeExact, grp.pfx
	}
	h.expect, h.competitive = expectedMitigation(h.typ, h.pfx, h.owned)
	g.in.hijacks = append(g.in.hijacks, h)
	g.in.hijackIndex[alertKey(h.typ, h.pfx.String(), h.origin)] = id
	out := make([]pending, 0, spec.hijackCopies)
	vps := g.rnd.Perm(spec.vps)
	for k := 0; k < spec.hijackCopies; k++ {
		vp := vps[k%len(vps)]
		c := change{pfx: []prefix.Prefix{h.pfx}, vp: vp, path: g.path(vp, h.origin), hijack: -1,
			owned: true, sub: h.typ == typeSub, isHijack: true}
		c.routers = g.routersFor(vp, true)
		c.hijack = id
		out = append(out, pending{at: at + k, c: c})
	}
	return out
}

// routersFor picks which BMP routers mirror a change from vp: a change
// from a shared vantage point goes to both with probability both
// (owned space only), otherwise to one router that peers with vp.
func (g *generator) routersFor(vp int, owned bool) uint8 {
	third := g.in.spec.vps / 3
	inA, inB := vp < 2*third, vp >= third
	switch {
	case inA && inB:
		if owned && g.rnd.Float64() < g.in.spec.both*3 {
			return 3
		}
		if g.rnd.Intn(2) == 0 {
			return 1
		}
		return 2
	case inA:
		return 1
	default:
		return 2
	}
}

// background draws one benign change: unrelated churn (wire-bmp), or a
// legitimate exact announcement (or withdrawal) of an owned prefix.
func (g *generator) background() change {
	spec := g.in.spec
	vp := g.rnd.Intn(spec.vps)
	c := change{vp: vp, hijack: -1}
	wd := g.rnd.Float64() < spec.withdraw
	if g.rnd.Float64() < spec.unrelated {
		n := 1 + g.rnd.Intn(4)
		if wd {
			n = 1
		}
		for k := 0; k < n; k++ {
			c.pfx = append(c.pfx, g.unrelated())
		}
		if !wd {
			c.path = g.path(vp, uint32(1000+g.rnd.Intn(60000)))
		}
		c.routers = g.routersFor(vp, false)
		return c
	}
	grp := &g.in.groups[g.rnd.Intn(len(g.in.groups))]
	c.pfx = []prefix.Prefix{grp.pfx}
	c.owned = true
	if !wd {
		c.path = g.path(vp, grp.origin)
	}
	c.routers = g.routersFor(vp, true)
	return c
}

// unrelated draws a prefix outside the owned ranges (10/8 and
// 2001:db8::/32) with a full-table-like mask mix.
func (g *generator) unrelated() prefix.Prefix {
	if g.rnd.Intn(10) == 0 {
		bits := []int{32, 36, 40, 44, 48, 48, 48}[g.rnd.Intn(7)]
		hi := uint64(0x2a00+g.rnd.Intn(0x100))<<48 | uint64(g.rnd.Uint32())<<16
		return prefix.New(prefix.AddrFrom16(hi, 0), bits)
	}
	bits := []int{24, 24, 24, 24, 24, 24, 23, 22, 22, 21, 20, 19, 18, 16}[g.rnd.Intn(14)]
	first := uint32(11 + g.rnd.Intn(212))
	return prefix.New(prefix.AddrFrom4(first<<24|g.rnd.Uint32()&0xffffff), bits)
}

// emit encodes one logical change for the workload's feed.
func (g *generator) emit(pi *phaseInput, i int, c change) {
	meta := msgMeta{logical: int32(i), hijack: c.hijack, routes: uint8(len(c.pfx))}
	if c.owned {
		meta.owned = meta.routes
	}
	if c.sub {
		meta.sub = meta.routes
	}
	if c.isHijack {
		meta.hijacks = meta.routes
	}
	if g.in.spec.feed == feedInject {
		o := obsRec{vp: uint16(c.vp), pfx: g.textOf(c.pfx[0]), withdraw: c.path == nil}
		if !o.withdraw {
			o.path, o.plen = g.storedPath(c.vp, c.path[len(c.path)-1])
		}
		pi.obs = append(pi.obs, o)
		pi.meta = append(pi.meta, meta)
		return
	}
	ts := g.ts()
	var m bmp.Message
	if c.path == nil {
		m = g.withdrawMsg(c.vp, ts, c.pfx...)
	} else {
		m = g.announce(c.vp, ts, c.path, c.pfx...)
	}
	for r := 0; r < 2; r++ {
		if c.routers&(1<<r) != 0 {
			pi.wire[r].add(m, meta)
		}
	}
}

// textOf interns p's canonical text in inputs.texts.
func (g *generator) textOf(p prefix.Prefix) int32 {
	i, ok := g.textIdx[p]
	if !ok {
		i = int32(len(g.in.texts))
		g.in.texts = append(g.in.texts, p.String())
		g.textIdx[p] = i
	}
	return i
}

// storedPath interns the path from vp to origin in inputs.paths: Inject
// streams reuse one path per (vantage point, origin), as stable routing
// would.
func (g *generator) storedPath(vp int, origin uint32) (int32, uint8) {
	k := [2]uint32{uint32(vp), origin}
	if p, ok := g.pathIdx[k]; ok {
		return p[0], uint8(p[1])
	}
	path := g.path(vp, origin)
	off := int32(len(g.in.paths))
	g.in.paths = append(g.in.paths, path...)
	g.pathIdx[k] = [2]int32{off, int32(len(path))}
	return off, uint8(len(path))
}

// markers plants phase ph's closing hijacks: one per router on BMP, one
// on Inject.
func (g *generator) markers(ph int8) {
	pi := &g.in.phases[ph]
	routers := 1
	if g.in.spec.feed == feedBMP {
		routers = 2
	}
	for r := 0; r < routers; r++ {
		gi := int32(g.rnd.Intn(len(g.in.groups)))
		grp := &g.in.groups[gi]
		id := int32(len(g.in.hijacks))
		h := hijack{typ: typeExact, group: gi, pfx: grp.pfx, owned: grp.pfx,
			origin: uint32(hijackBase + int(id)), phase: ph, idx: pi.n, marker: true}
		h.expect, h.competitive = expectedMitigation(h.typ, h.pfx, h.owned)
		g.in.hijacks = append(g.in.hijacks, h)
		g.in.hijackIndex[alertKey(h.typ, h.pfx.String(), h.origin)] = id
		pi.markers = append(pi.markers, id)
		if g.in.spec.feed == feedInject {
			vp := g.rnd.Intn(g.in.spec.vps)
			pi.markerObs = append(pi.markerObs, artemis.RouteObservation{
				VantagePoint: g.in.vpASN[vp], Prefix: grp.text, Path: g.path(vp, h.origin)})
			continue
		}
		vp := g.in.routerVPs[r][0]
		meta := msgMeta{logical: int32(pi.n), hijack: id, routes: 1, owned: 1, hijacks: 1}
		pi.markerWire[r].add(g.announce(vp, g.ts(), g.path(vp, h.origin), grp.pfx), meta)
	}
}

// expectedMitigation is ARTEMIS's response rule (§2): announce the
// attacked prefix one bit more specific, clamped at /24 (v4) or /48
// (v6) where the same prefix is re-announced competitively; a squat is
// answered by re-announcing the owned prefix.
func expectedMitigation(typ string, pfx, owned prefix.Prefix) ([]string, bool) {
	if typ == typeSquat {
		return []string{owned.String()}, false
	}
	maxLen := 24
	if pfx.Is6() {
		maxLen = 48
	}
	if pfx.Bits()+1 > maxLen {
		return []string{pfx.String()}, true
	}
	subs, err := pfx.Deaggregate(pfx.Bits() + 1)
	if err != nil {
		panic(err) // bits+1 is always a valid length here
	}
	out := make([]string, len(subs))
	for i, s := range subs {
		out[i] = s.String()
	}
	return out, false
}

// alertKey identifies an incident the way the detector dedups it.
func alertKey(typ, pfx string, origin uint32) string {
	return fmt.Sprintf("%s|%s|%d", typ, pfx, origin)
}

// ownerNames lists the tenants expected to alert on a hijack of group gi.
func (in *inputs) ownerNames(gi int32) []string {
	if in.spec.tenants == 0 {
		return []string{artemis.DefaultTenant}
	}
	out := make([]string, 0, len(in.groups[gi].owners))
	for _, t := range in.groups[gi].owners {
		out = append(out, in.tenants[t])
	}
	return out
}

// config builds the node's declarative config.
func (in *inputs) config(bmpAddrs []string, ribPath string) *artemis.Config {
	cfg := &artemis.Config{
		Mitigation: artemis.MitigationConfig{
			ConfigDelay: -1, // no modelled controller latency
			MaxDeaggLen: 24, MaxDeaggLen6: 48,
		},
	}
	if in.spec.tenants == 0 {
		for _, g := range in.groups {
			cfg.Prefixes = append(cfg.Prefixes, g.text)
		}
		cfg.Origins = []uint32{legitASN}
	} else {
		for t, name := range in.tenants {
			ts := artemis.TenantSpec{Name: name}
			for _, gi := range in.tenantGrps[t] {
				ts.Prefixes = append(ts.Prefixes, in.groups[gi].text)
				ts.Origins = append(ts.Origins, in.groups[gi].origin)
			}
			cfg.Tenants = append(cfg.Tenants, ts)
		}
	}
	if len(bmpAddrs) > 0 {
		// The station reads as fast as the routers write; its source
		// queue sheds once full. Deep enough that a closed-loop second of
		// owned-space batches fits, so overload shows as backlog.
		cfg.Tuning.SourceQueue = sourceQueue
	}
	for i, a := range bmpAddrs {
		cfg.Sources = append(cfg.Sources, artemis.SourceSpec{
			Type: artemis.SourceBMP, Name: fmt.Sprintf("router-%c", 'a'+i), Addr: a})
	}
	if ribPath != "" {
		cfg.RIB.Path = ribPath
	}
	return cfg
}
