// Degraded-aware routing: the recovery plane's answer to gray failures.
// A node the supervisor has marked degraded is slow-but-alive — killing
// it would trade a slowdown for a full recovery, but routing recovery
// traffic *through* it serializes the whole collection behind its
// inflated service time. The cluster therefore keeps a degraded set
// (fed by the detector's StateDegraded transitions via the supervisor)
// and the mechanism executors route around members: planning prefers
// healthy replica holders, star fetches demote degraded replicas to
// last resort, and tree collection excises degraded interior stages
// from the forest so their shard indices fall to direct fetches (the
// subtree → direct-fetch rung) instead of stalling a whole subtree.
package recovery

import (
	"sr3/internal/id"
)

// MarkDegraded adds a node to the cluster's degraded set. Recovery
// planning and failover routing deprioritize members until cleared.
func (c *Cluster) MarkDegraded(nid id.ID) {
	c.degradedMu.Lock()
	defer c.degradedMu.Unlock()
	c.degraded[nid] = true
}

// ClearDegraded removes a node from the degraded set (the supervisor
// calls this when the detector reports the peer's RTT recovered, or
// after a kill verdict supersedes the degradation).
func (c *Cluster) ClearDegraded(nid id.ID) {
	c.degradedMu.Lock()
	defer c.degradedMu.Unlock()
	delete(c.degraded, nid)
}

// IsDegraded reports whether the node is currently marked degraded.
func (c *Cluster) IsDegraded(nid id.ID) bool {
	c.degradedMu.RLock()
	defer c.degradedMu.RUnlock()
	return c.degraded[nid]
}

// DegradedIDs returns the current degraded set (for dashboards/tests).
func (c *Cluster) DegradedIDs() []id.ID {
	c.degradedMu.RLock()
	defer c.degradedMu.RUnlock()
	out := make([]id.ID, 0, len(c.degraded))
	for nid := range c.degraded {
		out = append(out, nid)
	}
	return out
}

// SetDegradedCheck installs the predicate the mechanism executors
// consult when ordering replica holders. NewCluster wires it to
// Cluster.IsDegraded; standalone managers (an sr3node's, the
// TCP-transport tests') may leave it nil, which disables degraded
// routing.
func (m *Manager) SetDegradedCheck(f func(id.ID) bool) {
	if f == nil {
		m.slowCheck.Store(nil)
		return
	}
	m.slowCheck.Store(&f)
}

// demoteDegraded stable-reorders replica holders so healthy ones are
// tried first and degraded ones remain available as last resort — the
// star mechanism's replica demotion. Returns the input slice untouched
// when nothing is degraded (the common, allocation-free case).
func (m *Manager) demoteDegraded(holders []id.ID) []id.ID {
	f := m.slowCheck.Load()
	if f == nil {
		return holders
	}
	check := *f
	anySlow := false
	for _, h := range holders {
		if check(h) {
			anySlow = true
			break
		}
	}
	if !anySlow {
		return holders
	}
	out := make([]id.ID, 0, len(holders))
	var tail []id.ID
	for _, h := range holders {
		if check(h) {
			tail = append(tail, h)
			continue
		}
		out = append(out, h)
	}
	return append(out, tail...)
}

// splitDegraded partitions collection stages into healthy and degraded
// ones. Tree collection builds its forest from the healthy set only;
// the degraded stages' indices fall to the star ladder as direct
// fetches, so a slow provider delays only its own shards, never a
// subtree routed through it.
func (m *Manager) splitDegraded(stages []stage) (healthy, slow []stage) {
	f := m.slowCheck.Load()
	if f == nil {
		return stages, nil
	}
	check := *f
	for _, st := range stages {
		if check(st.Node) {
			slow = append(slow, st)
			continue
		}
		healthy = append(healthy, st)
	}
	if len(slow) == 0 {
		return stages, nil
	}
	return healthy, slow
}
