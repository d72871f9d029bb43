package artemis

import (
	"os"
	"path/filepath"
	"testing"

	"artemis/internal/bgp"
	"artemis/internal/feeds/eventlog"
	"artemis/internal/feeds/feedtypes"
	"artemis/internal/prefix"
)

// These tests hold the node's two entry points to the single-owner batch
// rule with poisoned pools: the taps read a delivered batch before the
// pipeline takes it over, everything they keep is their own copy, and
// the pipeline releases the batch once applied (a second release would
// panic).

func ownershipNode(t *testing.T, cfg *Config) *Node {
	t.Helper()
	cfg.Prefixes = []string{"10.0.0.0/23"}
	cfg.Origins = []uint32{61000}
	n, err := New(cfg, WithLogf(func(string, ...any) {}))
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func isPoisoned(ev feedtypes.Event) bool {
	return ev.Source == "poisoned" && ev.Prefix == feedtypes.PoisonPrefix
}

// checkEvidence fails unless the default tenant's one alert carries an
// intact copy of the hijack's evidence.
func checkEvidence(t *testing.T, n *Node, path []bgp.ASN) {
	t.Helper()
	alerts := n.tenants[DefaultTenant].svc.Detector.Alerts()
	if len(alerts) != 1 {
		t.Fatalf("alerts = %+v", alerts)
	}
	ev := alerts[0].Evidence
	if ev.Prefix != prefix.MustParse("10.0.0.0/24") || len(ev.Path) != len(path) || ev.Path[len(path)-1] != path[len(path)-1] {
		t.Fatalf("alert evidence aliases released storage: %+v", ev)
	}
}

// checkLookup fails unless the route table holds an intact copy of the
// hijack's route.
func checkLookup(t *testing.T, n *Node, origin uint32) {
	t.Helper()
	r, ok, err := n.Lookup("10.0.0.0/24")
	if err != nil || !ok || r.Origin != origin || len(r.Path) != 3 || r.Path[2] != origin {
		t.Fatalf("RIB entry after release = %+v ok=%v err=%v", r, ok, err)
	}
}

// TestDeliverTapsReadBeforeHandOff drives the supervisor's sink
// directly with a poisoned batch: the RIB, the recorder and the event
// firehose read it, the pipeline takes it over and releases it, and the
// alert evidence, RIB entry, recorded archive and streamed event all
// survive the release intact.
func TestDeliverTapsReadBeforeHandOff(t *testing.T) {
	capture := filepath.Join(t.TempDir(), "cap")
	n := ownershipNode(t, &Config{RIB: RIBConfig{Enabled: true}, Record: RecordConfig{Path: capture}})
	sub, err := n.SubscribeEvents("", 4)
	if err != nil {
		t.Fatal(err)
	}

	pool := feedtypes.NewBatchPool()
	pool.SetPoison(true)
	b := pool.Get()
	path := b.AppendPath([]bgp.ASN{100, 2000, 666})
	b.Append(feedtypes.Event{
		Source: "bmp", Collector: "r1", VantagePoint: 100, Kind: feedtypes.Announce,
		Prefix: prefix.MustParse("10.0.0.0/24"), Path: path,
	})
	held := b.Events
	n.deliver(b)
	n.pl.Flush()

	if !isPoisoned(held[0]) {
		t.Fatalf("delivered batch not released after the pipeline applied it: %+v", held[0])
	}
	checkEvidence(t, n, []bgp.ASN{100, 2000, 666})
	checkLookup(t, n, 666)
	if ev := <-sub.Events(); ev.Prefix != prefix.MustParse("10.0.0.0/24") || ev.Path[2] != 666 {
		t.Fatalf("streamed event aliases released storage: %+v", ev)
	}

	n.Drain() // flushes the recorder's final segment
	segs, _ := filepath.Glob(capture + "-*.evlog")
	if len(segs) != 1 {
		t.Fatalf("segments = %v", segs)
	}
	f, err := os.Open(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rec, err := eventlog.NewReader(f).Next()
	if err != nil {
		t.Fatal(err)
	}
	if rec.Event.Prefix != prefix.MustParse("10.0.0.0/24") || len(rec.Event.Path) != 3 || rec.Event.Path[2] != 666 {
		t.Fatalf("recorded event aliases released storage: %+v", rec.Event)
	}
}

// TestInjectHandsBatchOver: Inject builds its batch in the node's
// poisoned pool and hands it to the pipeline rather than releasing it
// itself; the RIB tap reads it first, and a rejected call releases its
// half-built batch without reaching any tap. Inject's taps stay the
// pipeline and the RIB: nothing reaches the recorder or the firehose.
func TestInjectHandsBatchOver(t *testing.T) {
	capture := filepath.Join(t.TempDir(), "cap")
	n := ownershipNode(t, &Config{RIB: RIBConfig{Enabled: true}, Record: RecordConfig{Path: capture}})
	n.injectPool.SetPoison(true)
	sub, err := n.SubscribeEvents("", 4)
	if err != nil {
		t.Fatal(err)
	}

	if err := n.Inject(RouteObservation{VantagePoint: 100, Prefix: "10.0.0.0/24", Path: []uint32{100, 2000, 666}}); err != nil {
		t.Fatal(err)
	}
	n.pl.Flush()
	// Intact evidence means the batch was not released before the sink
	// applied it; an Inject that also released it after Submit would have
	// panicked on the pipeline's release.
	checkEvidence(t, n, []bgp.ASN{100, 2000, 666})
	checkLookup(t, n, 666)

	if err := n.Inject(
		RouteObservation{VantagePoint: 100, Prefix: "10.0.0.0/24", Path: []uint32{100, 2000, 667}},
		RouteObservation{VantagePoint: 100, Prefix: "not-a-prefix"},
	); err == nil {
		t.Fatal("bad prefix accepted")
	}
	n.pl.Flush()
	checkLookup(t, n, 666) // the rejected call reached no tap

	n.Drain()
	if _, open := <-sub.Events(); open {
		t.Fatal("Inject fed the event firehose")
	}
	if st, _ := n.RecordStatus(); st.Events != 0 {
		t.Fatalf("Inject fed the recorder: %+v", st)
	}
}
