package recovery

import (
	"fmt"
	"sort"

	"sr3/internal/id"
	"sr3/internal/shard"
)

// RecoverDirect rebuilds app's state on this manager using the given
// mechanism, planning provider stages straight from the published
// placement: each shard index is served by its first replica holder the
// transport reports reachable. It is Cluster.Recover minus the ring
// coordination — the recovery path for deployments (and benchmarks) where
// nodes share only a transport: the sr3node cluster and the TCP
// data-plane harness.
func (m *Manager) RecoverDirect(app string, mech Mechanism, opts Options) (Result, error) {
	p, err := m.LookupPlacement(app)
	if err != nil {
		return Result{}, fmt.Errorf("recover %q: %w", app, err)
	}
	stages, err := stagesFromPlacement(p, m.node.ID(), m.node.PeerAlive)
	if err != nil {
		return Result{}, fmt.Errorf("recover %q: %w", app, err)
	}
	return m.recoverStages(p, stages, mech, opts)
}

// recoverStages runs mech on this manager — the replacement — over the
// planned provider stages, and installs the assembled snapshot.
func (m *Manager) recoverStages(p shard.Placement, stages []stage, mech Mechanism, opts Options) (Result, error) {
	app := p.App
	oc := newOutcomeRecorder()
	a := newAssembler(p)
	var err error
	switch mech {
	case Star:
		err = m.collectStar(app, p, opts, oc, a)
	case Line:
		err = m.collectLine(app, stages, p, opts, oc, a)
	case Tree:
		err = m.collectTree(app, stages, 1<<clampBit(opts.TreeFanoutBit), p, opts, oc, a)
	default:
		return Result{}, fmt.Errorf("recover %q: %d: %w", app, mech, ErrBadMechanism)
	}
	if err != nil {
		return Result{}, fmt.Errorf("recover %q (%s): %w", app, mech, err)
	}
	snapshot, err := a.bytes()
	if err != nil {
		return Result{}, fmt.Errorf("recover %q (%s): %w", app, mech, err)
	}
	m.SetRecovered(app, snapshot)
	merged, _ := a.stats()
	return Result{
		App:         app,
		Mechanism:   mech,
		Replacement: m.node.ID(),
		Snapshot:    snapshot,
		Version:     p.Version,
		Providers:   len(stages),
		ShardsMoved: merged,
		Outcome:     oc.snapshot(),
	}, nil
}

// stagesFromPlacement picks one reachable replica holder per shard index
// (replica order) and groups indices by holder, ordered farthest-first
// from the replacement — the same shape Cluster.liveStages produces, but
// derived from the placement and transport liveness alone.
func stagesFromPlacement(p shard.Placement, replacement id.ID, alive func(id.ID) bool) ([]stage, error) {
	byHolder := make(map[id.ID][]int)
	for i := 0; i < p.M; i++ {
		found := false
		for _, h := range p.NodesForIndex(i) {
			if h == replacement || alive == nil || alive(h) {
				byHolder[h] = append(byHolder[h], i)
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("shard index %d: %w", i, ErrShardLost)
		}
	}
	return groupStages(byHolder, replacement), nil
}

// groupStages turns per-index holder choices into stages, holders
// ordered by ring distance from the replacement, farthest first (so line
// chains end near the replacement, as in Fig 4).
func groupStages(byHolder map[id.ID][]int, replacement id.ID) []stage {
	holders := make([]id.ID, 0, len(byHolder))
	for h := range byHolder {
		holders = append(holders, h)
	}
	sort.Slice(holders, func(i, j int) bool {
		di := id.Distance(holders[i], replacement)
		dj := id.Distance(holders[j], replacement)
		if cmp := di.Cmp(dj); cmp != 0 {
			return cmp > 0 // farthest first
		}
		return holders[i].Less(holders[j])
	})
	stages := make([]stage, 0, len(holders))
	for _, h := range holders {
		idx := byHolder[h]
		sort.Ints(idx)
		stages = append(stages, stage{Node: h, Indices: idx})
	}
	return stages
}
