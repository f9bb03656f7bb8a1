package recovery

import (
	"bytes"
	"errors"
	"testing"

	"sr3/internal/metrics"
	"sr3/internal/shard"
)

// TestManagerRetainsSupersededVersion pins the mid-save crash fallback: a
// saver that dies after pushing only part of a new version leaves that
// version incomplete and unpublished, so holders must keep the superseded
// replicas until the *next* supersession — the published placement still
// names them, and without them the state is unrecoverable.
func TestManagerRetainsSupersededVersion(t *testing.T) {
	// Two nodes: every replica of the saver's state lands on the one peer.
	c := buildCluster(t, 2, 31)
	saverID, holderID := c.Ring.IDs()[0], c.Ring.IDs()[1]
	saver, holder := c.Manager(saverID), c.Manager(holderID)
	const app = "app/count/0"
	snap1 := bytes.Repeat([]byte("one "), 64)
	snap2 := bytes.Repeat([]byte("two "), 64)
	snap3 := bytes.Repeat([]byte("three "), 64)
	held := func() int { return holder.ShardsByApp()[app] }

	v1 := saver.NextVersion(1)
	if _, err := saver.Save(app, snap1, 4, 2, v1); err != nil {
		t.Fatalf("save v1: %v", err)
	}
	if got := held(); got != 4 {
		t.Fatalf("holder has %d replicas after v1, want 4 (r thinned to the one live peer)", got)
	}

	// v2 interrupted after 2 of 4 pushes; its placement is never published.
	v2 := saver.NextVersion(2)
	part, err := shard.Split(app, saverID, snap2, 4, v2)
	if err != nil {
		t.Fatal(err)
	}
	if err := saver.pushShardBatch(holderID, part[:2]); err != nil {
		t.Fatal(err)
	}
	if got := held(); got != 6 {
		t.Fatalf("held = %d, want 6 (4 retained v1 + 2 partial v2)", got)
	}
	for _, mech := range []Mechanism{Star, Line, Tree} {
		res, err := saver.RecoverDirect(app, mech, DefaultOptions())
		if err != nil {
			t.Fatalf("%s: superseded published version lost: %v", mech, err)
		}
		if res.Version != v1 || !bytes.Equal(res.Snapshot, snap1) {
			t.Fatalf("%s: recovered version %v, want the published v1", mech, res.Version)
		}
	}

	// A complete v3 drops v1 and makes v2's remnants the fallback tier:
	// retention is exactly two versions deep.
	v3 := saver.NextVersion(3)
	if _, err := saver.Save(app, snap3, 4, 2, v3); err != nil {
		t.Fatalf("save v3: %v", err)
	}
	noV1 := func(when string) {
		t.Helper()
		for i := 0; i < 4; i++ {
			if holder.hasShardAt(app, i, v1) {
				t.Fatalf("%s: v1 replica of index %d still held", when, i)
			}
		}
	}
	noV1("after v3")
	if got := held(); got != 6 {
		t.Fatalf("held = %d after v3, want 6 (4 v3 + 2 v2)", got)
	}

	// Stale and duplicate pushes leave the held set unchanged.
	stale, err := shard.Split(app, saverID, snap1, 4, v1)
	if err != nil {
		t.Fatal(err)
	}
	dup, err := shard.Split(app, saverID, snap3, 4, v3)
	if err != nil {
		t.Fatal(err)
	}
	if err := saver.pushShardBatch(holderID, append(stale, dup...)); err != nil {
		t.Fatal(err)
	}
	noV1("after stale re-push")
	if got := held(); got != 6 {
		t.Fatalf("stale/duplicate pushes changed the held set: %d replicas", got)
	}
	res, err := saver.RecoverDirect(app, Star, DefaultOptions())
	if err != nil || !bytes.Equal(res.Snapshot, snap3) {
		t.Fatalf("recover v3: %v", err)
	}
}

// TestSaveRequiresOffNodePeer pins the off-node acknowledgement rule: a
// save places replicas only on live leaf-set peers, never the saver, and
// with no live peer it fails typed, publishes nothing, and is counted.
func TestSaveRequiresOffNodePeer(t *testing.T) {
	c := buildCluster(t, 3, 32)
	ids := c.Ring.IDs()
	saver := c.Manager(ids[0])
	reg := metrics.NewRegistry()
	saver.SetMetrics(reg)

	// Three replicas asked, two peers live: one replica per peer.
	p, err := saver.Save("a", bytes.Repeat([]byte("x"), 100), 4, 3, saver.NextVersion(1))
	if err != nil {
		t.Fatalf("save: %v", err)
	}
	if p.R != 2 {
		t.Fatalf("placement r = %d, want 2 (one per live peer)", p.R)
	}
	for _, h := range p.Holders() {
		if h == ids[0] {
			t.Fatal("replica placed on the saver")
		}
	}

	c.Ring.Fail(ids[1])
	c.Ring.Fail(ids[2])
	_, err = saver.Save("b", []byte("state"), 4, 2, saver.NextVersion(2))
	if !errors.Is(err, ErrUnderReplicated) {
		t.Fatalf("save with no live peer: want ErrUnderReplicated, got %v", err)
	}
	if _, ok := saver.Placement("b"); ok {
		t.Fatal("refused save recorded a placement")
	}
	if saver.ShardsByApp()["b"] != 0 {
		t.Fatal("refused save kept replicas on the saver")
	}
	if got := reg.Counter("sr3_recovery_save_underreplicated_total").Value(); got != 1 {
		t.Fatalf("under-replication counter = %d, want 1", got)
	}
}
