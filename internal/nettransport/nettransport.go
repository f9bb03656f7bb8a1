// Package nettransport runs the overlay over real TCP sockets: it
// implements simnet.Transport with gob-encoded request/reply frames, so
// the same DHT/Scribe/recovery code that runs in-process also runs
// across actual network connections. Nodes registered on a Network are
// served either on a loopback listener of their own (New) or on a
// listener the caller owns and multiplexes (NewShared); nodes living in
// other processes are reached through the peer address book (AddPeer),
// which the caller keeps in step with its membership service.
package nettransport

import (
	"bufio"
	"encoding/gob"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"sr3/internal/id"
	"sr3/internal/obs"
	"sr3/internal/overload"
	"sr3/internal/simnet"
)

// Errors (mirroring the in-process transport's contract).
var (
	ErrNodeDown    = errors.New("nettransport: node is down")
	ErrUnknownNode = errors.New("nettransport: unknown node")
	ErrDuplicate   = errors.New("nettransport: node already registered")
	// ErrTimeout reports a request/reply exchange exceeding the I/O
	// deadline: the peer accepted the connection but stalled. Callers
	// treat it like a dead peer and fail over.
	ErrTimeout = errors.New("nettransport: i/o timeout")
	// ErrDialExhausted reports that every dial attempt of the retry
	// policy failed. It always arrives wrapped together with ErrNodeDown,
	// so existing callers that treat dial failure as a dead peer keep
	// working while retry-aware callers can match the specific cause.
	ErrDialExhausted = errors.New("nettransport: dial retries exhausted")
)

// DialTimeout bounds connection establishment to a peer.
const DialTimeout = 2 * time.Second

// DialRetryPolicy tunes Call's dial loop: transient connection failures
// (a peer restarting its listener, accept-queue overflow under churn) are
// retried with capped exponential backoff plus jitter before the caller
// sees ErrDialExhausted. The zero value selects the defaults.
type DialRetryPolicy struct {
	// Attempts is the total number of dials tried (default 4).
	Attempts int
	// BaseDelay is the backoff before the second attempt; it doubles per
	// attempt (default 25ms).
	BaseDelay time.Duration
	// MaxDelay caps the backoff growth (default 250ms).
	MaxDelay time.Duration
}

func (p DialRetryPolicy) withDefaults() DialRetryPolicy {
	if p.Attempts <= 0 {
		p.Attempts = 4
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = 25 * time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = 250 * time.Millisecond
	}
	return p
}

// backoff returns the sleep before attempt number attempt (1-based count
// of failures so far): BaseDelay doubling per failure, capped at
// MaxDelay, plus up to 50% random jitter so synchronized callers
// (every node re-dialing one restarted peer) do not reconnect in
// lockstep.
func (p DialRetryPolicy) backoff(attempt int) time.Duration {
	d := p.BaseDelay << (attempt - 1)
	if d > p.MaxDelay || d <= 0 { // <=0 guards shift overflow
		d = p.MaxDelay
	}
	return d + time.Duration(rand.Int63n(int64(d)/2+1))
}

// dialRetry runs the dial loop for one address under the policy.
func dialRetry(addr string, p DialRetryPolicy) (net.Conn, error) {
	conn, _, err := dialRetryN(addr, p, nil)
	return conn, err
}

// dialRetryN is dialRetry reporting how many attempts were made, for the
// transport's dial counters. A non-nil budget is charged one token per
// retry (attempts after the first); an empty budget cuts the loop short
// with ErrRetryBudgetExhausted so a storm of failing callers cannot
// multiply its own dial volume.
func dialRetryN(addr string, p DialRetryPolicy, budget *overload.Budget) (net.Conn, int, error) {
	p = p.withDefaults()
	var lastErr error
	for attempt := 1; attempt <= p.Attempts; attempt++ {
		conn, err := net.DialTimeout("tcp", addr, DialTimeout)
		if err == nil {
			return conn, attempt, nil
		}
		lastErr = err
		if attempt < p.Attempts {
			if !budget.Allow() {
				return nil, attempt, fmt.Errorf("%w: %w after %d attempts: %v",
					ErrDialExhausted, ErrRetryBudgetExhausted, attempt, lastErr)
			}
			time.Sleep(p.backoff(attempt))
		}
	}
	return nil, p.Attempts, fmt.Errorf("%w after %d attempts: %v", ErrDialExhausted, p.Attempts, lastErr)
}

// DefaultIOTimeout bounds one whole request/reply exchange on a
// connection (both sides). Without it a hung peer — accepted connection,
// no reply — would block a recovery forever; with it the caller gets
// ErrTimeout and the failover ladder takes over.
const DefaultIOTimeout = 10 * time.Second

// maxRawLen caps an announced raw-body length (1 GiB): far above any
// shard batch this system moves, tight enough that a hostile header
// cannot demand an absurd allocation.
const maxRawLen = 1 << 30

// wireRequest is the on-the-wire request frame. RawLen announces a chunked
// raw body following the gob frame (see frame.go).
type wireRequest struct {
	From   id.ID
	Kind   string
	Size   int
	Body   any
	RawLen int
	// TraceID/SpanID carry the sender's span context across the wire
	// (see simnet.Message); zero for untraced traffic, which gob then
	// omits entirely.
	TraceID uint64
	SpanID  uint64
}

// wireReply is the on-the-wire reply frame.
type wireReply struct {
	Kind    string
	Size    int
	Body    any
	ErrMsg  string
	RawLen  int
	TraceID uint64
	SpanID  uint64
}

type server struct {
	ln      net.Listener // nil on a shared Network: the owner accepts
	handler simnet.Handler
	down    bool
	wg      sync.WaitGroup
}

// Network is a TCP-backed simnet.Transport: every registered node gets a
// loopback listener (or, on a shared Network, is served on its owner's
// listener), and Call dials the peer and exchanges one gob frame pair per
// request.
type Network struct {
	mu      sync.RWMutex
	servers map[id.ID]*server
	// addrs resolves every callable node: local ones to their listener,
	// booked remote peers (AddPeer) to the address their process serves.
	addrs map[id.ID]string
	// plane is the first byte of every dialed connection on a shared
	// Network (0 otherwise); self is the address its owner advertises.
	plane     byte
	self      string
	closed    bool
	ioTimeout time.Duration
	// peerTimeout holds per-peer deadline overrides (escalation policy:
	// the supervisor tightens deadlines toward degraded peers so a slow
	// node sheds load instead of pinning callers for the full timeout).
	peerTimeout map[id.ID]time.Duration
	dial        DialRetryPolicy
	tracer      *obs.Tracer

	// Data-plane accounting (see frame.go): raw-body bytes and chunk
	// frames moved through this transport, and the destination-buffer pool.
	pool        bufPool
	rawBytes    atomic.Int64
	rawFrames   atomic.Int64
	rawMessages atomic.Int64
	// stallNanos accumulates sender time blocked on the credit window —
	// the data plane's backpressure signal, surfaced per-exchange as
	// PhaseStall spans when the message is traced.
	stallNanos atomic.Int64
	stallCount atomic.Int64

	// instr publishes the steady-state counter handles (instruments.go);
	// nil until SetMetrics.
	instr instrPtr

	// ovl holds the overload-control state: the degraded-service inbound
	// gate, per-peer circuit breakers, and the dial retry budget
	// (overload.go).
	ovl overloadState
}

// DataPlaneStats is a snapshot of the transport's raw-body accounting.
type DataPlaneStats struct {
	// RawBytes counts raw-body payload bytes moved (both directions).
	RawBytes int64
	// RawFrames counts chunk frames moved.
	RawFrames int64
	// RawMessages counts exchanges that carried a raw body.
	RawMessages int64
	// StallNanos is sender time spent blocked on the chunk credit window
	// (flow-control backpressure); StallCount is how many raw-body writes
	// stalled at least once.
	StallNanos int64
	StallCount int64
	// Pool reports destination-buffer reuse.
	Pool PoolStats
}

// DataPlane returns the transport's raw-body counters.
func (n *Network) DataPlane() DataPlaneStats {
	return DataPlaneStats{
		RawBytes:    n.rawBytes.Load(),
		RawFrames:   n.rawFrames.Load(),
		RawMessages: n.rawMessages.Load(),
		StallNanos:  n.stallNanos.Load(),
		StallCount:  n.stallCount.Load(),
		Pool:        PoolStats{Hits: n.pool.hits.Load(), Misses: n.pool.misses.Load()},
	}
}

var _ simnet.Transport = (*Network)(nil)

// New returns an empty TCP transport.
func New() *Network {
	return &Network{
		servers:     make(map[id.ID]*server),
		addrs:       make(map[id.ID]string),
		peerTimeout: make(map[id.ID]time.Duration),
		ioTimeout:   DefaultIOTimeout,
	}
}

// NewShared returns a transport for a process that already serves a
// listener and multiplexes planes on a connection's first byte: Register
// binds no socket, every dial opens with the plane byte, and the
// listener's owner hands each connection that opened with it to
// ServeConn. self is the address the owner advertises to its peers.
func NewShared(plane byte, self string) *Network {
	n := New()
	n.plane, n.self = plane, self
	return n
}

// ServeConn serves one request/reply exchange for the locally registered
// node nid on a connection the owner accepted (the plane byte already
// consumed). It returns once the exchange is done or fails.
func (n *Network) ServeConn(nid id.ID, conn net.Conn) {
	n.mu.RLock()
	srv := n.servers[nid]
	n.mu.RUnlock()
	if srv == nil {
		return
	}
	n.serveConn(nid, srv, conn)
}

// AddPeer books the address of a node served by another process: calls
// to nid dial addr, and Alive reports nid reachable until RemovePeer.
// Booking a node registered on this Network is a no-op.
func (n *Network) AddPeer(nid id.ID, addr string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, local := n.servers[nid]; !local {
		n.addrs[nid] = addr
	}
}

// RemovePeer drops a booked peer: later calls to it fail fast with
// ErrUnknownNode, without a dial, and Alive reports it unreachable.
func (n *Network) RemovePeer(nid id.ID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, local := n.servers[nid]; !local {
		delete(n.addrs, nid)
	}
}

// SetIOTimeout overrides the per-exchange read/write deadline (0
// disables deadlines — not recommended outside tests).
func (n *Network) SetIOTimeout(d time.Duration) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.ioTimeout = d
}

// SetPeerTimeout installs a per-peer deadline override for exchanges
// *to* nid, taking precedence over the global I/O timeout. d <= 0
// removes the override. Timeouts hit under an override are counted as
// slow-peer timeouts (sr3_net_slow_peer_timeouts_total), separating
// "degraded peer missed its tightened deadline" from "peer is dead"
// in /metrics.
func (n *Network) SetPeerTimeout(nid id.ID, d time.Duration) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if d <= 0 {
		delete(n.peerTimeout, nid)
		return
	}
	n.peerTimeout[nid] = d
}

// PeerTimeout reports the per-peer deadline override for nid, if any.
func (n *Network) PeerTimeout(nid id.ID) (time.Duration, bool) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	d, ok := n.peerTimeout[nid]
	return d, ok
}

// SetDialRetryPolicy overrides the dial retry policy for future Calls.
func (n *Network) SetDialRetryPolicy(p DialRetryPolicy) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.dial = p
}

// SetTracer attaches an observability tracer: credit-window stalls on
// traced exchanges are then emitted as PhaseStall spans parented on the
// message's span context. nil (the default) keeps stat-only accounting.
func (n *Network) SetTracer(tr *obs.Tracer) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.tracer = tr
}

func (n *Network) getTracer() *obs.Tracer {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.tracer
}

// noteStall folds one raw-body write's stall time into the counters and,
// when the exchange was traced, emits a retroactive PhaseStall span.
func (n *Network) noteStall(stallNs int64, traceID, spanID uint64) {
	if stallNs <= 0 {
		return
	}
	n.stallNanos.Add(stallNs)
	n.stallCount.Add(1)
	tr := n.getTracer()
	if tr == nil || traceID == 0 {
		return
	}
	end := tr.Now()
	tr.RecordSpan(obs.SpanContext{Trace: traceID, Span: spanID}, obs.PhaseStall,
		end.Add(-time.Duration(stallNs)), end, obs.Int("stall_ns", stallNs))
}

func (n *Network) dialPolicy() DialRetryPolicy {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.dial
}

func (n *Network) timeout() time.Duration {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.ioTimeout
}

// timeoutFor resolves the effective deadline for an exchange to nid and
// whether it came from a per-peer override (the slow-peer marker).
func (n *Network) timeoutFor(nid id.ID) (time.Duration, bool) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	if d, ok := n.peerTimeout[nid]; ok {
		return d, true
	}
	return n.ioTimeout, false
}

// isTimeout reports whether err is a network deadline expiry (gob wraps
// the underlying net.Error, so unwrap via errors.As).
func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// Register starts a listener for the node and serves its handler (on a
// shared Network it only records the handler for ServeConn).
func (n *Network) Register(nid id.ID, h simnet.Handler) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return errors.New("nettransport: network closed")
	}
	if _, ok := n.servers[nid]; ok {
		return fmt.Errorf("register %s: %w", nid.Short(), ErrDuplicate)
	}
	if n.plane != 0 {
		n.servers[nid] = &server{handler: h}
		n.addrs[nid] = n.self
		return nil
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("nettransport: listen: %w", err)
	}
	srv := &server{ln: ln, handler: h}
	n.servers[nid] = srv
	n.addrs[nid] = ln.Addr().String()
	srv.wg.Add(1)
	go n.serve(nid, srv)
	return nil
}

func (n *Network) serve(nid id.ID, srv *server) {
	defer srv.wg.Done()
	for {
		conn, err := srv.ln.Accept()
		if err != nil {
			return // listener closed (Fail or Close)
		}
		srv.wg.Add(1)
		go func() {
			defer srv.wg.Done()
			defer func() { _ = conn.Close() }()
			n.serveConn(nid, srv, conn)
		}()
	}
}

func (n *Network) serveConn(nid id.ID, srv *server, conn net.Conn) {
	// Bound the whole exchange: a client that connects and never sends
	// (or never drains the reply) must not pin this handler goroutine.
	// Raw-body frames refresh the deadline per chunk (frame.go), turning
	// it into an idle timeout for large transfers.
	fio := frameIO{conn: conn, r: bufio.NewReader(conn), timeout: n.timeout()}
	fio.refresh()
	dec := gob.NewDecoder(fio.r)
	enc := gob.NewEncoder(conn)
	var req wireRequest
	if err := dec.Decode(&req); err != nil {
		return
	}
	// The raw body must be drained before any reply can go out — the
	// client writes it unconditionally and the stream cannot resync
	// otherwise — so read it even on the down path.
	var reqRaw []byte
	if req.RawLen > 0 {
		if req.RawLen > maxRawLen {
			return // hostile header: drop the connection
		}
		reqRaw = n.pool.get(req.RawLen)
		defer n.pool.put(reqRaw)
		frames, err := fio.readRaw(reqRaw)
		n.rawFrames.Add(frames)
		if err != nil {
			return
		}
		n.rawBytes.Add(int64(req.RawLen))
		n.rawMessages.Add(1)
	}
	n.mu.RLock()
	down := srv.down
	n.mu.RUnlock()
	if down {
		_ = enc.Encode(&wireReply{ErrMsg: ErrNodeDown.Error()})
		return
	}
	// Degraded-service admission gate: while recovery holds the gate,
	// ingest-class requests are rejected before the handler runs.
	// Control traffic (heartbeats, routing) must pass or the node looks
	// dead, and recovery traffic is the point of degrading. Sits after
	// the raw-body drain — the stream cannot resync otherwise.
	if n.ovl.degraded.Load() && ClassifyKind(req.Kind) == ClassIngest {
		if ni := n.instr.Load(); ni != nil {
			ni.rejectedIngest.Inc()
		}
		_ = enc.Encode(&wireReply{ErrMsg: ErrOverloaded.Error()})
		return
	}
	// The request buffer is pooled (deferred put above): the handler
	// contract is that Raw is not retained past return.
	reply, err := srv.handler(req.From, simnet.Message{
		Kind: req.Kind, Size: req.Size, Payload: req.Body, Raw: reqRaw,
		TraceID: req.TraceID, SpanID: req.SpanID,
	})
	// The deadline covered the request; the reply gets a fresh one, or a
	// handler that outruns the I/O timeout could never answer.
	fio.refresh()
	out := &wireReply{Kind: reply.Kind, Size: reply.Size, Body: reply.Payload, RawLen: len(reply.Raw),
		TraceID: reply.TraceID, SpanID: reply.SpanID}
	if err != nil {
		out = &wireReply{ErrMsg: err.Error()}
	}
	if err := enc.Encode(out); err != nil {
		reply.ReleaseRaw()
		return
	}
	if out.RawLen > 0 {
		var stallNs int64
		fio.stallNs = &stallNs
		frames, werr := fio.writeRaw(reply.Raw)
		n.rawFrames.Add(frames)
		if werr == nil {
			n.rawBytes.Add(int64(out.RawLen))
			n.rawMessages.Add(1)
			n.noteStall(stallNs, req.TraceID, req.SpanID)
		}
	}
	// A handler that forwarded a pooled body attaches its recycler to the
	// reply; the bytes are on the wire now, so return the buffer.
	reply.ReleaseRaw()
}

// Call dials the destination and performs one request/reply exchange
// under the peer's effective deadline (per-peer override when set, the
// global I/O timeout otherwise).
func (n *Network) Call(from, to id.ID, msg simnet.Message) (simnet.Message, error) {
	timeout, slow := n.timeoutFor(to)
	return n.call(from, to, msg, timeout, slow)
}

// CallTimeout is Call with a per-call deadline override, taking
// precedence over both the per-peer and global timeouts. Callers use it
// to bound a single exchange to a peer they already suspect is slow; a
// timeout under the override is therefore counted as a slow-peer
// timeout.
func (n *Network) CallTimeout(from, to id.ID, msg simnet.Message, d time.Duration) (simnet.Message, error) {
	return n.call(from, to, msg, d, true)
}

func (n *Network) call(from, to id.ID, msg simnet.Message, timeout time.Duration, slow bool) (simnet.Message, error) {
	ni := n.instr.Load()
	if ni != nil {
		ni.calls.Inc()
	}
	n.mu.RLock()
	src, srcOK := n.servers[from]
	srcDown := srcOK && src.down
	addr, dstOK := n.addrs[to]
	dst := n.servers[to] // nil for a booked remote peer
	dstDown := dst != nil && dst.down
	n.mu.RUnlock()

	if !srcOK {
		return simnet.Message{}, fmt.Errorf("call from %s: %w", from.Short(), ErrUnknownNode)
	}
	if srcDown {
		return simnet.Message{}, fmt.Errorf("call from %s: %w", from.Short(), ErrNodeDown)
	}
	if !dstOK {
		return simnet.Message{}, fmt.Errorf("call to %s: %w", to.Short(), ErrUnknownNode)
	}
	if dstDown {
		// The listener is closed, but fail fast rather than waiting for
		// a connection-refused round trip.
		return simnet.Message{}, fmt.Errorf("call to %s: %w", to.Short(), ErrNodeDown)
	}

	// Circuit breaker: an open breaker fails the call locally — no dial,
	// no backoff sleeps — until the cooldown admits a half-open probe.
	br := n.breakerFor(to)
	if !br.Acquire() {
		if ni != nil {
			ni.breakerFastFails.Inc()
		}
		return simnet.Message{}, fmt.Errorf("call to %s: %w: %w", to.Short(), ErrNodeDown, ErrBreakerOpen)
	}
	out, transportFailure, err := n.exchange(from, to, addr, msg, timeout, slow)
	n.noteOutcome(to, br, transportFailure)
	return out, err
}

// exchange performs the dial and one request/reply round trip. The
// middle return marks transport-level failures (unreachable or
// unresponsive peer) for the caller's breaker accounting — a remote
// application error is not one: the peer answered.
func (n *Network) exchange(from, to id.ID, addr string, msg simnet.Message, timeout time.Duration, slow bool) (simnet.Message, bool, error) {
	ni := n.instr.Load()
	conn, attempts, err := dialRetryN(addr, n.dialPolicy(), n.retryBudget())
	ni.noteDial(attempts, err)
	if err != nil {
		if errors.Is(err, ErrRetryBudgetExhausted) && ni != nil {
			ni.retrySuppressed.Inc()
		}
		// Wrap ErrNodeDown too: routing layers treat an unreachable peer
		// as dead, and retry exhaustion is exactly that signal.
		return simnet.Message{}, true, fmt.Errorf("call to %s: %w: %w", to.Short(), ErrNodeDown, err)
	}
	defer func() { _ = conn.Close() }()
	// Per-request deadline: a peer that accepts but stalls mid-exchange
	// yields ErrTimeout instead of blocking the caller forever. Raw-body
	// frames refresh it per chunk (frame.go).
	fio := frameIO{conn: conn, r: bufio.NewReader(conn), timeout: timeout}
	fio.refresh()
	if n.plane != 0 {
		if _, err := conn.Write([]byte{n.plane}); err != nil {
			return simnet.Message{}, true, fmt.Errorf("call to %s: plane: %w", to.Short(), err)
		}
	}

	enc := gob.NewEncoder(conn)
	dec := gob.NewDecoder(fio.r)
	if err := enc.Encode(&wireRequest{From: from, Kind: msg.Kind, Size: msg.Size, Body: msg.Payload,
		RawLen: len(msg.Raw), TraceID: msg.TraceID, SpanID: msg.SpanID}); err != nil {
		if isTimeout(err) {
			n.noteTimeout(slow)
			return simnet.Message{}, true, fmt.Errorf("call to %s: %w: %v", to.Short(), ErrTimeout, err)
		}
		return simnet.Message{}, true, fmt.Errorf("call to %s: encode: %w", to.Short(), err)
	}
	if len(msg.Raw) > 0 {
		var stallNs int64
		fio.stallNs = &stallNs
		frames, err := fio.writeRaw(msg.Raw)
		n.rawFrames.Add(frames)
		if err != nil {
			if isTimeout(err) {
				n.noteTimeout(slow)
				return simnet.Message{}, true, fmt.Errorf("call to %s: %w: %v", to.Short(), ErrTimeout, err)
			}
			return simnet.Message{}, true, fmt.Errorf("call to %s: raw body: %w", to.Short(), err)
		}
		n.rawBytes.Add(int64(len(msg.Raw)))
		n.rawMessages.Add(1)
		n.noteStall(stallNs, msg.TraceID, msg.SpanID)
	}
	var reply wireReply
	if err := dec.Decode(&reply); err != nil {
		if isTimeout(err) {
			n.noteTimeout(slow)
			return simnet.Message{}, true, fmt.Errorf("call to %s: %w: %v", to.Short(), ErrTimeout, err)
		}
		return simnet.Message{}, true, fmt.Errorf("call to %s: decode: %w", to.Short(), err)
	}
	if reply.ErrMsg != "" {
		// The peer answered — a transport success for breaker purposes,
		// whatever the application-level verdict. Overload rejections are
		// re-wrapped so callers can back off on errors.Is(ErrOverloaded).
		if reply.ErrMsg == ErrOverloaded.Error() {
			return simnet.Message{}, false, fmt.Errorf("call to %s: %w", to.Short(), ErrOverloaded)
		}
		return simnet.Message{}, false, fmt.Errorf("call to %s: remote: %s", to.Short(), reply.ErrMsg)
	}
	out := simnet.Message{Kind: reply.Kind, Size: reply.Size, Payload: reply.Body,
		TraceID: reply.TraceID, SpanID: reply.SpanID}
	if reply.RawLen > 0 {
		if reply.RawLen > maxRawLen {
			return simnet.Message{}, true, fmt.Errorf("call to %s: raw body of %d bytes exceeds cap", to.Short(), reply.RawLen)
		}
		buf := n.pool.get(reply.RawLen)
		frames, err := fio.readRaw(buf)
		n.rawFrames.Add(frames)
		if err != nil {
			n.pool.put(buf)
			if isTimeout(err) {
				n.noteTimeout(slow)
				return simnet.Message{}, true, fmt.Errorf("call to %s: %w: %v", to.Short(), ErrTimeout, err)
			}
			return simnet.Message{}, true, fmt.Errorf("call to %s: raw body: %w", to.Short(), err)
		}
		n.rawBytes.Add(int64(reply.RawLen))
		n.rawMessages.Add(1)
		out.Raw = buf
		out.SetFree(func() { n.pool.put(buf) })
	}
	return out, false, nil
}

// Alive reports whether nid is registered and serving, or is a booked
// remote peer.
func (n *Network) Alive(nid id.ID) bool {
	n.mu.RLock()
	defer n.mu.RUnlock()
	if srv, ok := n.servers[nid]; ok {
		return !srv.down
	}
	_, booked := n.addrs[nid]
	return booked
}

// Fail crashes a node: its listener closes and callers get connection
// errors, exactly like a process kill.
func (n *Network) Fail(nid id.ID) {
	n.mu.Lock()
	srv, ok := n.servers[nid]
	if ok && !srv.down {
		srv.down = true
		if srv.ln != nil {
			_ = srv.ln.Close()
		}
	}
	n.mu.Unlock()
}

// Addr returns a node's TCP address (for out-of-band bootstrap).
func (n *Network) Addr(nid id.ID) (string, bool) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	a, ok := n.addrs[nid]
	return a, ok
}

// Close shuts down every listener and waits for in-flight handlers.
func (n *Network) Close() {
	n.mu.Lock()
	n.closed = true
	servers := make([]*server, 0, len(n.servers))
	for _, srv := range n.servers {
		if !srv.down {
			srv.down = true
			if srv.ln != nil {
				_ = srv.ln.Close()
			}
		}
		servers = append(servers, srv)
	}
	n.mu.Unlock()
	for _, srv := range servers {
		srv.wg.Wait()
	}
}
