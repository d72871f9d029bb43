package ingest_test

import (
	"fmt"
	"testing"
	"time"

	"artemis/internal/bgp"
	"artemis/internal/feeds/feedtypes"
	"artemis/internal/ingest"
	"artemis/internal/prefix"
)

// These tests hold the supervisor to the single-owner batch rule: a
// batch is written once (by the conn's decode, or by the one copy at the
// hub boundary), handed on without copies, and released exactly once by
// whoever owns it last — the delivery target, or the supervisor itself
// when it sheds or fully dedups the batch. Every pool involved poisons
// released storage, so reading a batch after its release shows up as
// PoisonPrefix/PoisonASN sentinels, and a second release panics.

// checkNotPoisoned fails the test if any collected event carries poison
// sentinels.
func checkNotPoisoned(t *testing.T, evs []feedtypes.Event) {
	t.Helper()
	for i := range evs {
		if evs[i].Prefix == feedtypes.PoisonPrefix || evs[i].Source == "poisoned" {
			t.Fatalf("event %d is poisoned — a batch was read after its release: %+v", i, evs[i])
		}
		for _, as := range evs[i].Path {
			if as == feedtypes.PoisonASN {
				t.Fatalf("event %d path holds the poison ASN — its arena was recycled while in use: %v", i, evs[i].Path)
			}
		}
	}
}

// poisonedSupervisor builds a supervisor whose batch pool poisons
// released storage.
func poisonedSupervisor(deliver func(*feedtypes.Batch), cfg ingest.Config) *ingest.Supervisor {
	sup := ingest.New(deliver, cfg)
	sup.Pool().SetPoison(true)
	return sup
}

// TestQueuedBatchSurvivesPublisherRelease publishes pooled, poisoned
// batches through a hub into an asynchronous in-process source, releasing
// each batch the moment Publish returns — exactly the feed lifecycle. The
// supervisor copies at the hub boundary, so its queue delivers intact
// events, not the publisher's recycled storage.
func TestQueuedBatchSurvivesPublisherRelease(t *testing.T) {
	var got collector
	sup := poisonedSupervisor(got.deliver, ingest.Config{QueueDepth: 64, DedupTTL: -1})
	defer sup.Close()

	hub := hubSource{Hub: feedtypes.NewHub(), name: "pooled"}
	sup.AddSource("pooled", hub, feedtypes.Filter{})

	pool := feedtypes.NewBatchPool()
	pool.SetPoison(true)
	const rounds, perBatch = 50, 8
	for r := 0; r < rounds; r++ {
		b := pool.Get()
		for i := 0; i < perBatch; i++ {
			path := b.NewPath(3)
			path[0], path[1], path[2] = 100, 2000, bgp.ASN(61000+r)
			b.Append(feedtypes.Event{
				Source:       "pooled",
				Collector:    fmt.Sprintf("c%d", r),
				VantagePoint: 100,
				Kind:         feedtypes.Announce,
				Prefix:       prefix.MustParse(fmt.Sprintf("10.%d.%d.0/24", r, i)),
				Path:         path,
				SeenAt:       time.Duration(r) * time.Millisecond,
				EmittedAt:    time.Duration(r) * time.Millisecond,
			})
		}
		hub.Publish(b.Events)
		b.Release() // storage is poisoned and recycled here
	}

	waitFor(t, "all batches delivered", func() bool { return got.count() == rounds*perBatch })
	evs := got.all()
	checkNotPoisoned(t, evs)
	for i, e := range evs {
		r, j := i/perBatch, i%perBatch
		want := prefix.MustParse(fmt.Sprintf("10.%d.%d.0/24", r, j))
		if e.Prefix != want || e.Path[2] != bgp.ASN(61000+r) {
			t.Fatalf("event %d corrupted: got %s origin %v, want %s origin %d", i, e.Prefix, e.Path[2], want, 61000+r)
		}
	}
}

// trackConn is a finite Conn that decodes n four-event batches straight
// into the batches the supervisor passes to Recv, and remembers the
// storage of every batch it filled. With dup set, each batch repeats the
// previous one's route changes on odd calls, so cross-source dedup
// suppresses it whole. Recv runs on the source's dial goroutine; the
// test reads the tracking state only after Supervisor.Wait.
type trackConn struct {
	n, i int
	dup  bool
	// filled maps every batch this conn filled to its events as last
	// filled; reused counts Recv calls handed a batch filled before — the
	// pool only hands out released batches, so each is a release.
	filled map[*feedtypes.Batch][]feedtypes.Event
	reused int
}

func (c *trackConn) Recv(b *feedtypes.Batch) error {
	if c.i >= c.n {
		return ingest.ErrDone
	}
	if _, ok := c.filled[b]; ok {
		c.reused++
	}
	k := c.i
	if c.dup {
		k = c.i / 2
	}
	for j := 0; j < 4; j++ {
		path := b.NewPath(3)
		path[0], path[1], path[2] = 100, 2000, bgp.ASN(61000+k)
		at := time.Duration(k) * time.Millisecond
		b.Append(feedtypes.Event{
			Source: "track", Collector: "c0", VantagePoint: 100, Kind: feedtypes.Announce,
			Prefix: prefix.MustParse(fmt.Sprintf("10.%d.%d.0/24", k, j)),
			Path:   path, SeenAt: at, EmittedAt: at,
		})
	}
	c.filled[b] = b.Events
	c.i++
	return nil
}

func (c *trackConn) Close() error { return nil }

// checkAllReleased fails unless every batch the conn filled ended up
// back in the poisoned pool: its storage as last filled now holds the
// poison sentinels.
func (c *trackConn) checkAllReleased(t *testing.T) {
	t.Helper()
	for b, evs := range c.filled {
		if evs[0].Source != "poisoned" || evs[0].Prefix != feedtypes.PoisonPrefix {
			t.Fatalf("batch %p was never released (leaked): %+v", b, evs[0])
		}
	}
}

// runTracked supervises one trackConn source until it finishes and the
// supervisor closes, returning the conn for inspection.
func runTracked(t *testing.T, sup *ingest.Supervisor, conn *trackConn, opts ...ingest.SourceOption) ingest.SourceID {
	t.Helper()
	conn.filled = make(map[*feedtypes.Batch][]feedtypes.Event)
	return sup.AddDialer("track", ingest.DialFunc(func() (ingest.Conn, error) { return conn, nil }), opts...)
}

// TestDialBatchHandedOverAndReleased: on the dial path the conn's decode
// is the only write of an event. The supervisor queues that same batch
// and hands it to deliver, which receives it intact and in order and
// releases it; every batch returns to the pool exactly once.
func TestDialBatchHandedOverAndReleased(t *testing.T) {
	var got collector
	sup := poisonedSupervisor(got.deliver, ingest.Config{QueueDepth: 2, DedupTTL: -1})
	const n = 64
	conn := &trackConn{n: n}
	runTracked(t, sup, conn, ingest.Blocking())
	sup.Wait()
	sup.Close()

	evs := got.all()
	if len(evs) != n*4 {
		t.Fatalf("delivered %d events, want %d", len(evs), n*4)
	}
	checkNotPoisoned(t, evs)
	for i, e := range evs {
		want := prefix.MustParse(fmt.Sprintf("10.%d.%d.0/24", i/4, i%4))
		if e.Prefix != want || e.Path[2] != bgp.ASN(61000+i/4) {
			t.Fatalf("event %d out of order or corrupted: got %s %v want %s", i, e.Prefix, e.Path, want)
		}
	}
	conn.checkAllReleased(t)
	if conn.reused == 0 {
		t.Fatal("no batch was ever recycled to the conn — delivered batches are not released")
	}
}

// TestShedBatchesReleased: batches the supervisor drops instead of
// delivering — queue shed, rate shed, fully deduplicated — are released
// by the supervisor, never leaked and never released twice.
func TestShedBatchesReleased(t *testing.T) {
	const n = 200
	t.Run("queue", func(t *testing.T) {
		wedge := make(chan struct{})
		var got collector
		sup := poisonedSupervisor(func(b *feedtypes.Batch) {
			<-wedge // hold the forwarder so the queue overflows
			got.deliver(b)
		}, ingest.Config{QueueDepth: 1, DedupTTL: -1})
		conn := &trackConn{n: n}
		id := runTracked(t, sup, conn)
		waitFor(t, "source finished", func() bool { return sup.SourceState(id) == ingest.StateFinished })
		close(wedge)
		sup.Wait()
		sup.Close()
		s := sup.Snapshot().Sources[0]
		if s.Drops == 0 {
			t.Fatal("queue never shed; the test did not exercise the drop path")
		}
		if int64(got.count())+s.Drops != n*4 {
			t.Fatalf("delivered %d + dropped %d != %d", got.count(), s.Drops, n*4)
		}
		checkNotPoisoned(t, got.all())
		conn.checkAllReleased(t)
	})
	t.Run("rate", func(t *testing.T) {
		var got collector
		sup := poisonedSupervisor(got.deliver, ingest.Config{QueueDepth: 256, DedupTTL: -1})
		conn := &trackConn{n: n}
		runTracked(t, sup, conn, ingest.RateLimit(1)) // the burst admits 512 events
		sup.Wait()
		sup.Close()
		s := sup.Snapshot().Sources[0]
		if s.RateShed == 0 {
			t.Fatal("rate limit never shed; the test did not exercise the shed path")
		}
		if int64(got.count())+s.RateShed+s.Drops != n*4 {
			t.Fatalf("delivered %d + shed %d + dropped %d != %d", got.count(), s.RateShed, s.Drops, n*4)
		}
		checkNotPoisoned(t, got.all())
		conn.checkAllReleased(t)
	})
	t.Run("dedup", func(t *testing.T) {
		var got collector
		sup := poisonedSupervisor(got.deliver, ingest.Config{QueueDepth: 4, DedupTTL: time.Hour})
		conn := &trackConn{n: n, dup: true}
		runTracked(t, sup, conn, ingest.Blocking())
		sup.Wait()
		sup.Close()
		s := sup.Snapshot().Sources[0]
		if got.count() != n/2*4 || s.DedupHits != n/2*4 {
			t.Fatalf("delivered %d, dedup hits %d; want %d each", got.count(), s.DedupHits, n/2*4)
		}
		checkNotPoisoned(t, got.all())
		conn.checkAllReleased(t)
	})
}
