package cluster

import (
	"errors"
	"sort"
	"sync"

	"sr3/internal/dht"
	"sr3/internal/id"
	"sr3/internal/obs"
	"sr3/internal/recovery"
	"sr3/internal/state"
	"sr3/internal/stream"
)

// ringID derives a member's ring identifier from its name, so a
// restarted process keeps its ID and placements that name it stay valid.
func ringID(name string) id.ID { return id.HashKey("sr3node/" + name) }

// applyRing makes this process's ring node follow the seed's view: live
// members are booked on the ring transport and folded into the leaf set;
// members the view holds dead are un-booked and reported dead, so no
// save places a replica on them and no recovery plans a fetch from them.
// The seed's verdict is the only liveness rule.
func (n *Node) applyRing(members []Member) {
	for _, m := range members {
		if m.Name == n.cfg.Name {
			continue
		}
		rid := ringID(m.Name)
		if m.Alive {
			n.ringNet.AddPeer(rid, m.Addr)
			n.ring.Learn(rid)
		} else {
			n.ringNet.RemovePeer(rid)
			n.ring.ReportDead(rid)
		}
	}
}

// ringBackend is the multi-process stream.StateBackend, a thin adapter
// over this process's recovery.Manager. Save places spec.Shards ×
// spec.Replicas shard replicas on the ring node's live leaf-set peers —
// never on this process — and publishes the placement in the ring's KV.
// Recovery looks the placement up from any process and runs the
// mechanism recovery.Select picks for the state's size. The last
// snapshot of every local task is retained so the repair loop can
// re-save it after membership changes.
type ringBackend struct {
	node *Node

	mu   sync.Mutex
	last map[string]savedSnap // taskKey -> latest local snapshot
}

type savedSnap struct {
	data    []byte
	version state.Version
}

var (
	_ stream.StateBackend  = (*ringBackend)(nil)
	_ stream.TracedBackend = (*ringBackend)(nil)
)

func newRingBackend(n *Node) *ringBackend {
	return &ringBackend{node: n, last: map[string]savedSnap{}}
}

// Save protects one snapshot. It fails — and the runtime keeps the
// task's input log — unless every shard index reached at least one live
// peer (recovery.ErrUnderReplicated when there is none).
func (b *ringBackend) Save(taskKey string, snapshot []byte, v state.Version) error {
	b.mu.Lock()
	if v.Newer(b.last[taskKey].version) {
		b.last[taskKey] = savedSnap{data: append([]byte(nil), snapshot...), version: v}
	}
	b.mu.Unlock()
	return b.save(taskKey, snapshot, v)
}

func (b *ringBackend) save(taskKey string, snapshot []byte, v state.Version) error {
	spec := b.node.spec
	_, err := b.node.mgr.Save(taskKey, snapshot, spec.Shards, spec.Replicas, v)
	return err
}

// Recover rebuilds taskKey's last published snapshot. A task that has
// never saved has no placement anywhere; it recovers to the empty state
// (its input log replays on top).
func (b *ringBackend) Recover(taskKey string) ([]byte, error) {
	return b.RecoverTraced(taskKey, nil, obs.SpanContext{})
}

// RecoverTraced is Recover with the mechanism's fetch and merge spans
// parented on the adoption's recovery span. A nil tracer or invalid
// parent records nothing — Recover delegates here with both zeroed.
func (b *ringBackend) RecoverTraced(taskKey string, tr *obs.Tracer, parent obs.SpanContext) ([]byte, error) {
	mgr := b.node.mgr
	// The placement lookup is the recovery's first fetch — a ring KV read
	// — and, for a task that never saved, its only one.
	var sp *obs.Span
	if parent.Valid() {
		sp = tr.StartSpan(parent, obs.PhaseFetch)
		sp.SetStr("placement", taskKey)
	}
	p, err := mgr.LookupPlacement(taskKey)
	if errors.Is(err, dht.ErrNotFound) {
		sp.End()
		return state.NewMapStore().Snapshot() // the empty state
	}
	sp.EndErr(err)
	if err != nil {
		return nil, err
	}
	d := recovery.Select(recovery.Requirements{StateBytes: int64(p.TotalLen)})
	mech := d.Mechanism
	if forced := b.node.forcedMech.Load(); forced != nil {
		mech = *forced
	}
	opts := d.Options
	if parent.Valid() {
		opts.Tracer, opts.TraceParent = tr, parent
	}
	res, err := mgr.RecoverDirect(taskKey, mech, opts)
	if err != nil {
		return nil, err
	}
	return res.Snapshot, nil
}

// repairTick re-saves the latest snapshot of every locally protected
// task against the current leaf set. A re-save of a held version is
// idempotent on the holders and republishes the placement in place, so
// running it on a timer costs only the pushes; it is what re-populates a
// crashed-and-rejoined holder and restores full replication after an
// adoption.
func (b *ringBackend) repairTick() {
	b.mu.Lock()
	keys := make([]string, 0, len(b.last))
	for k := range b.last {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	snaps := make([]savedSnap, 0, len(keys))
	for _, k := range keys {
		snaps = append(snaps, b.last[k])
	}
	b.mu.Unlock()
	for i, key := range keys {
		if err := b.save(key, snaps[i].data, snaps[i].version); err != nil {
			b.node.logf("repair %s: %v", key, err)
		}
	}
}

// forget drops retained snapshots for tasks this node no longer hosts.
func (b *ringBackend) forget(taskKeys []string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, k := range taskKeys {
		delete(b.last, k)
	}
}
