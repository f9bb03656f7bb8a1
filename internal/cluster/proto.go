package cluster

import (
	"encoding/gob"
	"errors"
	"fmt"
	"time"

	"sr3/internal/dht"
	"sr3/internal/id"
	"sr3/internal/metrics"
	"sr3/internal/obs"
	"sr3/internal/simnet"
)

// Wire protocol. Every sr3node serves one TCP listener; the first byte
// of a connection selects the plane:
//
//	'R' — request/reply: one nettransport exchange with this process's
//	      dht.Node. Overlay maintenance, the placement KV and the
//	      recovery manager's shard traffic ride here, and so does the
//	      cluster's own control and observability traffic — join,
//	      heartbeat, leave, adopt, metricspull and obsdump are direct
//	      message kinds on the ring node.
//	'T' — tuple stream: a gob flowHello naming the edge, then an
//	      endless sequence of batch-codec frames (stream.EncodeTupleBatch)
//	      carried length-delimited by nettransport.BatchConn.
const (
	magicFlow = 'T'
	magicRing = 'R'
)

// Control and observability RPC kinds. The seed serves join, heartbeat
// and leave; every node serves adopt, metricspull and obsdump.
const (
	kindJoin        = "sr3.cluster.join"
	kindHeartbeat   = "sr3.cluster.heartbeat"
	kindLeave       = "sr3.cluster.leave"
	kindAdopt       = "sr3.cluster.adopt"
	kindMetricsPull = "sr3.cluster.metricspull"
	kindObsDump     = "sr3.cluster.obsdump"
)

// seedRingID addresses the seed at the address a member was started
// with (NodeConfig.Seed), before it knows the seed's name. It is booked
// on the ring transport only, never learned into the leaf set, and no
// node name hashes to it.
var seedRingID = id.HashKey("sr3seed")

// ErrNotSeed reports a seed-only operation invoked on another node.
var ErrNotSeed = errors.New("cluster: this node does not run the control plane")

// registerWire registers the control RPC payloads with gob, as
// dht.RegisterWire and recovery.RegisterWire do for theirs.
func registerWire() {
	for _, v := range []any{
		&joinReq{}, &joinResp{}, &heartbeatReq{}, &heartbeatResp{},
		&leaveReq{}, &leaveResp{}, &adoptReq{}, &adoptResp{},
		&metricsPullReq{}, &metricsPullResp{}, &obsDumpReq{}, &obsDumpResp{},
	} {
		gob.Register(v)
	}
}

// call sends one control RPC to the process booked at to on the ring
// transport and type-checks the reply. timeout 0 leaves the exchange
// under the transport's deadline.
func call[Resp any](n *Node, to id.ID, kind string, req any, timeout time.Duration) (*Resp, error) {
	msg := simnet.Message{Kind: kind, Payload: req}
	var reply simnet.Message
	var err error
	if timeout > 0 {
		reply, err = n.ringNet.CallTimeout(n.ring.ID(), to, msg, timeout)
	} else {
		reply, err = n.ringNet.Call(n.ring.ID(), to, msg)
	}
	if err != nil {
		return nil, err
	}
	resp, ok := reply.Payload.(*Resp)
	if !ok || resp == nil {
		return nil, fmt.Errorf("cluster: %s: bad reply payload %T", kind, reply.Payload)
	}
	return resp, nil
}

// handler adapts a typed RPC handler to a ring direct handler. Payloads
// arrive from other processes, so anything but a non-nil *Req is
// rejected before f runs.
func handler[Req, Resp any](f func(*Req) (*Resp, error)) dht.DirectFunc {
	return func(_ id.ID, msg simnet.Message) (simnet.Message, error) {
		req, ok := msg.Payload.(*Req)
		if !ok || req == nil {
			return simnet.Message{}, fmt.Errorf("cluster: %s: bad payload %T", msg.Kind, msg.Payload)
		}
		resp, err := f(req)
		if err != nil {
			return simnet.Message{}, err
		}
		return simnet.Message{Kind: msg.Kind, Payload: resp}, nil
	}
}

// rpcHandlers returns the control and observability RPCs this node
// serves, by kind; the seed-only kinds only on the seed.
func (n *Node) rpcHandlers() map[string]dht.DirectFunc {
	hs := map[string]dht.DirectFunc{
		kindAdopt: handler(n.handleAdopt),
		kindMetricsPull: handler(func(*metricsPullReq) (*metricsPullResp, error) {
			return &metricsPullResp{
				Node:        n.cfg.Name,
				Incarnation: n.incarnation.Load(),
				Registry:    n.reg.Snapshot(),
				Debug:       n.Debug(),
			}, nil
		}),
		kindObsDump: handler(func(*obsDumpReq) (*obsDumpResp, error) {
			dump := n.localObsDump()
			return &dump, nil
		}),
	}
	if cp := n.control; cp != nil {
		hs[kindJoin] = handler(cp.handleJoin)
		hs[kindHeartbeat] = handler(cp.handleHeartbeat)
		hs[kindLeave] = handler(cp.handleLeave)
	}
	return hs
}

// Member is one cluster node as the control plane sees it. Its ring ID
// derives from Name (ringID) and its ring traffic rides Addr's ring
// plane.
type Member struct {
	Name        string
	Addr        string // cluster (RPC + flow + ring) address
	HTTP        string // metrics/debug address ("" when disabled)
	Alive       bool
	Incarnation int64 // bumped on every (re)join under the same name
}

// View is the control plane's replicated routing state: membership plus
// the current component->node assignment, versioned by Epoch. Nodes
// take a newer one from heartbeat replies and adopt requests.
type View struct {
	Epoch   int64
	Members []Member
	Assign  map[string]string
}

// member returns the view's record for name (nil when absent).
func (v *View) member(name string) *Member {
	for i := range v.Members {
		if v.Members[i].Name == name {
			return &v.Members[i]
		}
	}
	return nil
}

// liveMembers returns the live members, in join order.
func (v *View) liveMembers() []Member {
	var out []Member
	for _, m := range v.Members {
		if m.Alive {
			out = append(out, m)
		}
	}
	return out
}

type joinReq struct {
	Name        string
	Addr        string
	HTTP        string
	Incarnation int64
}

type joinResp struct {
	View View
	Spec Spec
	Seed string // the seed's name: joiners enter the ring through it
}

type heartbeatReq struct {
	Name        string
	Incarnation int64
	Epoch       int64 // view epoch the sender has applied
}

// heartbeatResp carries the seed's view when the sender's epoch is
// behind it (nil otherwise).
type heartbeatResp struct {
	View *View
}

// adoptReq tells a node to host additional components (a dead node's
// set). The node builds a new cell for them, marks stateful tasks dead,
// and recovers their state from the ring; the control plane
// flips routing (epoch bump) only after the adopt reply. View is the
// view that ordered the adoption: it carries the seed's death verdict,
// so the adopter applies it before recovering. Trace is the seed's
// adopt span: the adopter parents its recover/fetch/replay spans on it,
// so one kill-to-recovered incident is a single connected trace.
type adoptReq struct {
	Components []string
	View       View
	Trace      obs.SpanContext
}

type adoptResp struct{}

type leaveReq struct {
	Name        string
	Incarnation int64
}

type leaveResp struct{}

// metricsPullReq asks a member for its full registry snapshot plus its
// debug view — one federation cycle's worth of state. Issued by the
// seed at the federation interval.
type metricsPullReq struct{}

type metricsPullResp struct {
	Node        string
	Incarnation int64
	Registry    metrics.RegistrySnapshot
	Debug       NodeDebug
}

// obsDumpReq asks a member for its observability journal: the flight
// recorder ring and every span its local collector holds (binary span
// batch, obs/wire.go). The seed uses it to stitch distributed traces
// and to merge a cluster-wide post-mortem timeline.
type obsDumpReq struct{}

type obsDumpResp struct {
	Node        string
	Incarnation int64
	Flight      []obs.FlightEvent
	Spans       []byte // obs binary span batch (Collector.ExportBinary)
}

// flowHello opens a tuple stream: it names the edge (producer component
// -> consumer component) so the receiver injects into the right cell,
// and the producer's node for the logs.
type flowHello struct {
	FromNode string
	FromComp string
	DestComp string
}
