package recovery

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"sr3/internal/dht"
	"sr3/internal/id"
	"sr3/internal/metrics"
	"sr3/internal/obs"
	"sr3/internal/shard"
	"sr3/internal/simnet"
	"sr3/internal/state"
)

// Message kinds served by the per-node Manager.
const (
	kindStore       = "sr3.shard.store"
	kindStoreBatch  = "sr3.shard.storeBatch"
	kindFetchIndex  = "sr3.shard.fetchIndex"
	kindLineCollect = "sr3.line.collect"
	kindTreeCollect = "sr3.tree.collect"
	kindAck         = "sr3.ack"
)

const msgHeader = 48

// placementKVKey is where a state's placement table lives in the DHT KV
// (replicated in the root's leaf set), so recovery still finds it when the
// owner died.
func placementKVKey(app string) string { return "sr3/placement/" + app }

// Manager is the per-node SR3 agent: it stores shard replicas pushed by
// state owners, serves fetches, and executes its part of line/tree
// collection. One Manager is attached to every DHT node.
type Manager struct {
	node *dht.Node
	// tracer parents handler-side collect spans on the inbound message's
	// span context (atomic: handlers read it concurrently with SetTracer).
	tracer atomic.Pointer[obs.Tracer]
	// slowCheck reports whether a peer is marked degraded (slow-but-
	// alive); recovery routing deprioritizes such holders. Installed by
	// the owning Cluster; nil disables degraded routing.
	slowCheck atomic.Pointer[func(id.ID) bool]

	// underReplicated counts saves refused for want of a live off-node
	// holder (nil until SetMetrics).
	underReplicated atomic.Pointer[metrics.Counter]

	mu         sync.Mutex
	held       map[string]*heldApp
	placements map[string]shard.Placement
	// saving serializes the saves of one app, so a slow re-save of an
	// older version cannot publish over a newer one.
	saving    map[string]*sync.Mutex
	recovered map[string][]byte
	saveSeq   uint64
}

// heldApp is one app's replicas stored on this node: those of the newest
// version seen, then those of the version it superseded, kept until the
// next supersession. A saver killed mid-save leaves its newest version
// incomplete while the last published placement still names the one
// before, so that one must stay fetchable.
type heldApp [2]struct {
	version state.Version
	shards  map[shard.Key]shard.Shard
}

// NewManager attaches an SR3 manager to a DHT node.
func NewManager(n *dht.Node) *Manager {
	m := &Manager{
		node:       n,
		held:       make(map[string]*heldApp),
		placements: make(map[string]shard.Placement),
		saving:     make(map[string]*sync.Mutex),
		recovered:  make(map[string][]byte),
	}
	n.HandleDirect(kindStore, m.handleStore)
	n.HandleDirect(kindStoreBatch, m.handleStoreBatch)
	n.HandleDirect(kindFetchIndex, m.handleFetchIndex)
	n.HandleDirect(kindLineCollect, m.handleLineCollect)
	n.HandleDirect(kindTreeCollect, m.handleTreeCollect)
	return m
}

// Node returns the underlying DHT node.
func (m *Manager) Node() *dht.Node { return m.node }

// SetTracer installs the tracer used by this node's collect handlers.
func (m *Manager) SetTracer(tr *obs.Tracer) { m.tracer.Store(tr) }

// getTracer returns the node's tracer (nil when tracing is off).
func (m *Manager) getTracer() *obs.Tracer { return m.tracer.Load() }

// SetMetrics publishes the manager's counters into reg.
func (m *Manager) SetMetrics(reg *metrics.Registry) {
	m.underReplicated.Store(reg.Counter("sr3_recovery_save_underreplicated_total"))
}

// ShardCount returns how many shard replicas this node stores.
func (m *Manager) ShardCount() int {
	n := 0
	for _, c := range m.ShardsByApp() {
		n += c
	}
	return n
}

// ShardBytes returns the total bytes of shard replicas stored here.
func (m *Manager) ShardBytes() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for _, h := range m.held {
		for _, t := range h {
			for _, s := range t.shards {
				n += len(s.Data)
			}
		}
	}
	return n
}

// ShardsByApp returns how many shard replicas this node stores per app.
func (m *Manager) ShardsByApp() map[string]int {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[string]int, len(m.held))
	for app, h := range m.held {
		out[app] = len(h[0].shards) + len(h[1].shards)
	}
	return out
}

// Save splits a state snapshot into mShards shards, replicates each
// replicas times, and writes them to the owner's leaf set (paper §3.3
// Layer 2). All replicas bound for one holder travel as a single batched
// store — one round trip per holder, bodies framed in the message's raw
// byte body — and holders are written serially, matching the evaluation's
// fair-comparison setup for Fig 8c. The placement table is recorded
// locally and published into the DHT KV so any node can recover the
// state later.
//
// A save is acknowledged only with off-node copies: replicas go to the
// leaf-set peers the transport reports live, never to the saver, whose
// own copy would die with it. Fewer live peers than replicas thins each
// index to one replica per peer; no live peer at all fails the save with
// ErrUnderReplicated. A save older than the app's last published one is
// a no-op returning the newer placement, which already covers it.
func (m *Manager) Save(app string, snapshot []byte, mShards, replicas int, v state.Version) (shard.Placement, error) {
	m.mu.Lock()
	appMu := m.saving[app]
	if appMu == nil {
		appMu = new(sync.Mutex)
		m.saving[app] = appMu
	}
	m.mu.Unlock()
	appMu.Lock()
	defer appMu.Unlock()
	if last, ok := m.Placement(app); ok && last.Version.Newer(v) {
		return last, nil
	}
	shards, err := shard.Split(app, m.node.ID(), snapshot, mShards, v)
	if err != nil {
		return shard.Placement{}, fmt.Errorf("save %q: %w", app, err)
	}
	var leaves []id.ID
	for _, l := range m.node.LeafSet() {
		if m.node.PeerAlive(l) {
			leaves = append(leaves, l)
		}
	}
	if len(leaves) == 0 {
		if c := m.underReplicated.Load(); c != nil {
			c.Inc()
		}
		return shard.Placement{}, fmt.Errorf("save %q: %w", app, ErrUnderReplicated)
	}
	if replicas > len(leaves) {
		replicas = len(leaves)
	}
	reps, err := shard.Replicate(shards, replicas)
	if err != nil {
		return shard.Placement{}, fmt.Errorf("save %q: %w", app, err)
	}
	sort.Slice(leaves, func(i, j int) bool { return leaves[i].Less(leaves[j]) })
	placement, err := shard.Place(app, m.node.ID(), len(shards), replicas, v, len(snapshot), leaves)
	if err != nil {
		return shard.Placement{}, fmt.Errorf("save %q: %w", app, err)
	}
	byTarget := make(map[id.ID][]shard.Shard, len(leaves))
	for _, s := range reps {
		byTarget[placement.Loc[s.Key()]] = append(byTarget[placement.Loc[s.Key()]], s)
	}
	targets := make([]id.ID, 0, len(byTarget))
	for t := range byTarget {
		targets = append(targets, t)
	}
	sort.Slice(targets, func(i, j int) bool { return targets[i].Less(targets[j]) })
	for _, target := range targets {
		if err := m.pushShardBatch(target, byTarget[target]); err != nil {
			return shard.Placement{}, fmt.Errorf("save %q to %s: %w: %v", app, target.Short(), ErrSaveAborted, err)
		}
	}

	// Churn guard: the leaf set may have changed while shards were being
	// pushed. Publishing a placement that points at departed nodes would
	// poison every future recovery of this state, so re-verify the
	// holders and abort cleanly instead.
	for _, holder := range placement.Holders() {
		if holder == m.node.ID() {
			continue
		}
		if !m.node.PeerAlive(holder) {
			return shard.Placement{}, fmt.Errorf("save %q: holder %s departed: %w", app, holder.Short(), ErrSaveAborted)
		}
	}

	m.mu.Lock()
	if old, ok := m.placements[app]; ok && old.Version == v {
		// A re-save of the same version (the periodic re-protection)
		// republishes in place: the epoch ranks it above stale copies.
		placement.Epoch = old.Epoch + 1
	}
	m.placements[app] = placement
	m.mu.Unlock()

	blob, err := EncodePlacement(placement)
	if err != nil {
		return shard.Placement{}, fmt.Errorf("save %q: %w", app, err)
	}
	if err := m.node.Put(placementKVKey(app), blob); err != nil {
		return shard.Placement{}, fmt.Errorf("save %q placement: %w: %v", app, ErrSaveAborted, err)
	}
	return placement, nil
}

// SaveTraced runs Save under a PhaseSave span parented on tc, recorded
// with tr (nil tr, or an invalid parent with no trace of its own wanted,
// degrade gracefully — the span machinery is nil-safe).
func (m *Manager) SaveTraced(app string, snapshot []byte, mShards, replicas int, v state.Version, tr *obs.Tracer, tc obs.SpanContext) (shard.Placement, error) {
	sp := tr.StartSpan(tc, obs.PhaseSave)
	sp.SetStr("app", app)
	sp.SetInt("bytes", int64(len(snapshot)))
	p, err := m.Save(app, snapshot, mShards, replicas, v)
	sp.EndErr(err)
	return p, err
}

// NextVersion mints a monotonically increasing version for this owner.
func (m *Manager) NextVersion(now int64) state.Version {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.saveSeq++
	return state.Version{Timestamp: now, Seq: m.saveSeq}
}

// pushShardBatch delivers a group of replicas to one holder as a single
// batched store: metadata rides the gob payload, the shard bodies ride
// the message's raw byte body as length-prefixed frames, which
// serializing transports stream in chunks through pooled buffers. One
// round trip per holder instead of one per shard.
func (m *Manager) pushShardBatch(target id.ID, shards []shard.Shard) error {
	if len(shards) == 0 {
		return nil
	}
	if target == m.node.ID() {
		for _, s := range shards {
			m.storeLocal(s)
		}
		return nil
	}
	metas, raw := EncodeShardBatch(shards, nil)
	_, err := m.node.Send(target, simnet.Message{
		Kind:    kindStoreBatch,
		Size:    msgHeader + len(raw),
		Payload: &storeBatchMsg{Metas: metas},
		Raw:     raw,
	})
	return err
}

// storeLocal files one pushed replica under its app's version tiers. A
// newer version supersedes the app's newest (which becomes the fallback
// tier, dropping the one before it); a replica of either held version is
// stored in place; anything older is a stale write and is dropped
// (version control, paper §4, modification 3).
func (m *Manager) storeLocal(s shard.Shard) {
	m.mu.Lock()
	defer m.mu.Unlock()
	h := m.held[s.App]
	if h == nil {
		h = new(heldApp)
		m.held[s.App] = h
	}
	if h[0].shards == nil || s.Version.Newer(h[0].version) {
		h[1] = h[0]
		h[0].version, h[0].shards = s.Version, map[shard.Key]shard.Shard{}
	}
	for _, t := range h {
		if t.shards != nil && t.version == s.Version {
			t.shards[s.Key()] = s
			return
		}
	}
}

// DropShards deletes shard replicas (failure injection for Fig 10: "we
// deliberately remove some shards of application state in some nodes").
func (m *Manager) DropShards(app string, pred func(shard.Key) bool) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	h := m.held[app]
	if h == nil {
		return 0
	}
	n := 0
	for _, t := range h {
		for k := range t.shards {
			if pred == nil || pred(k) {
				delete(t.shards, k)
				n++
			}
		}
	}
	return n
}

// HasShard reports whether a replica is stored here (at any held version).
func (m *Manager) HasShard(k shard.Key) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	h := m.held[k.App]
	if h == nil {
		return false
	}
	_, cur := h[0].shards[k]
	_, prev := h[1].shards[k]
	return cur || prev
}

// shardAt returns a stored replica of (app, index) at version v, or the
// newest held replica of the index when v is zero. Callers hold m.mu.
func (m *Manager) shardAt(app string, index int, v state.Version) (shard.Shard, bool) {
	h := m.held[app]
	if h == nil {
		return shard.Shard{}, false
	}
	for _, t := range h {
		for k, s := range t.shards {
			if k.Index == index && (v == state.Version{} || s.Version == v) {
				return s, true
			}
		}
	}
	return shard.Shard{}, false
}

// hasShardAt reports whether any replica of (app, index) is stored here
// at exactly version v (at any version when v is zero) — the repair
// loop's health predicate.
func (m *Manager) hasShardAt(app string, index int, v state.Version) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	_, ok := m.shardAt(app, index, v)
	return ok
}

// GCShards applies version-scoped garbage collection for one app against
// its published placement p: replicas with a version older than p.Version
// are stale leftovers of earlier saves; replicas at p.Version that the
// placement no longer assigns to this node are orphans (the slot moved
// during repair). Both are deleted. Replicas *newer* than p.Version are
// kept — they belong to a save whose placement has not been published
// yet, and deleting them would destroy the only copy of in-flight state.
// Returns (stale, orphans) deletion counts.
func (m *Manager) GCShards(app string, p shard.Placement) (stale, orphans int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	h := m.held[app]
	if h == nil {
		return 0, 0
	}
	self := m.node.ID()
	for _, t := range h {
		for k, s := range t.shards {
			if p.Version.Newer(s.Version) {
				delete(t.shards, k)
				stale++
				continue
			}
			if s.Version == p.Version && p.Loc[k] != self {
				delete(t.shards, k)
				orphans++
			}
		}
	}
	return stale, orphans
}

// Placement returns the locally recorded placement for app (owner side).
func (m *Manager) Placement(app string) (shard.Placement, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	p, ok := m.placements[app]
	return p, ok
}

// LookupPlacement fetches a state's placement table from the DHT. Repair
// republishes tables in place (same version, bumped epoch), and after
// churn stale same-version copies can linger on old KV replicas — so the
// lookup reads every reachable copy and returns the one that supersedes
// the rest, not whichever copy one node happens to hold.
func (m *Manager) LookupPlacement(app string) (shard.Placement, error) {
	blobs, err := m.node.GetAll(placementKVKey(app))
	if err != nil {
		return shard.Placement{}, fmt.Errorf("%w: %w", ErrNoPlacement, err)
	}
	var best shard.Placement
	found := false
	for _, blob := range blobs {
		p, err := DecodePlacement(blob)
		if err != nil {
			continue // a corrupt replica must not mask a valid one
		}
		if !found || p.Supersedes(best) {
			best, found = p, true
		}
	}
	if !found {
		return shard.Placement{}, fmt.Errorf("%w: no valid placement copy for %q", ErrNoPlacement, app)
	}
	return best, nil
}

// SetRecovered records a reconstructed snapshot at the replacement node.
func (m *Manager) SetRecovered(app string, snapshot []byte) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.recovered[app] = append([]byte(nil), snapshot...)
}

// Recovered returns the reconstructed snapshot for app, if any.
func (m *Manager) Recovered(app string) ([]byte, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	b, ok := m.recovered[app]
	if !ok {
		return nil, false
	}
	return append([]byte(nil), b...), true
}

// --- message handlers ---

func (m *Manager) handleStore(_ id.ID, msg simnet.Message) (simnet.Message, error) {
	s, ok := msg.Payload.(*shard.Shard)
	if !ok {
		return simnet.Message{}, fmt.Errorf("recovery: bad store payload %T", msg.Payload)
	}
	if err := ValidateShard(*s); err != nil {
		return simnet.Message{}, err
	}
	m.storeLocal(*s)
	return simnet.Message{Kind: kindAck, Size: msgHeader}, nil
}

// storeBatchMsg is the batched store: Metas carries data-free shard
// metadata, the message's raw body carries the matching data frames
// (frame i ↔ Metas[i], see EncodeShardBatch).
type storeBatchMsg struct {
	Metas []shard.Shard
}

func (m *Manager) handleStoreBatch(_ id.ID, msg simnet.Message) (simnet.Message, error) {
	req, ok := msg.Payload.(*storeBatchMsg)
	if !ok {
		return simnet.Message{}, fmt.Errorf("recovery: bad store batch payload %T", msg.Payload)
	}
	shards, err := DecodeShardBatch(req.Metas, msg.Raw)
	if err != nil {
		return simnet.Message{}, err
	}
	for _, s := range shards {
		// The decoded Data subslices the transport-owned raw body, which
		// is recycled after this handler returns — store an owned copy.
		s.Data = append([]byte(nil), s.Data...)
		m.storeLocal(s)
	}
	return simnet.Message{Kind: kindAck, Size: msgHeader}, nil
}

type fetchIndexRequest struct {
	App   string
	Index int
	// Version selects the replica version (the placement being
	// assembled); zero asks for the newest held.
	Version state.Version
	// Inline requests the legacy encoding: shard data gob-encoded inside
	// the reply payload instead of riding the raw byte body. Kept as the
	// pre-data-plane baseline for A/B benchmarking.
	Inline bool
}

type fetchReply struct {
	Found bool
	// Shard arrives with Data nil unless Inline was requested; the data
	// travels in the reply's raw byte body (chunk-streamed by serializing
	// transports) and the caller reattaches it.
	Shard shard.Shard
}

// fetchReplyMsg builds the reply for one found shard, splitting data into
// the raw body unless the inline (baseline) encoding was requested. The
// raw body aliases the stored shard's data — safe because shard Data is
// immutable once stored and the transport finishes writing before the
// handler's reply is released.
func fetchReplyMsg(s shard.Shard, inline bool) simnet.Message {
	out := simnet.Message{Kind: kindAck, Size: msgHeader + len(s.Data)}
	if inline {
		out.Payload = &fetchReply{Found: true, Shard: s}
		return out
	}
	data := s.Data
	s.Data = nil
	out.Payload = &fetchReply{Found: true, Shard: s}
	out.Raw = data[:len(data):len(data)]
	return out
}

// handleFetchIndex returns any replica of the given shard index stored
// here at the requested version — used when the exact replica number is
// unknown.
func (m *Manager) handleFetchIndex(_ id.ID, msg simnet.Message) (simnet.Message, error) {
	req, ok := msg.Payload.(*fetchIndexRequest)
	if !ok {
		return simnet.Message{}, fmt.Errorf("recovery: bad fetchIndex payload %T", msg.Payload)
	}
	m.mu.Lock()
	s, found := m.shardAt(req.App, req.Index, req.Version)
	m.mu.Unlock()
	if !found {
		return simnet.Message{Kind: kindAck, Size: msgHeader, Payload: &fetchReply{}}, nil
	}
	return fetchReplyMsg(s, req.Inline), nil
}

// localShardsFor returns one of this node's replicas for each of the
// given app indices at version v (the newest held when v is zero).
func (m *Manager) localShardsFor(app string, v state.Version, indices []int) []shard.Shard {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]shard.Shard, 0, len(indices))
	for _, i := range indices {
		if s, ok := m.shardAt(app, i, v); ok {
			out = append(out, s)
		}
	}
	return out
}
