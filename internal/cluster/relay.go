package cluster

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"sr3/internal/nettransport"
	"sr3/internal/obs"
	"sr3/internal/stream"
)

// relay is the egress half of one cross-process edge (fromComp on this
// node -> destComp on whichever node the view currently assigns it). It
// is installed in the local cell as a parallel-1 bolt subscribed to
// fromComp, so the producer's emissions flow through the normal queue
// plane (backpressure included) into the relay, which batches them into
// PR 8 wire frames (stream.EncodeTupleBatch over nettransport.BatchConn).
//
// Delivery across failures: the relay retains a bounded window of the
// most recent tuples. Every (re)connect — including the reroute after
// the control plane moves destComp — replays the whole retained window
// as replay-class traffic before resuming live sends. The receiver's
// per-key watermark dedupe makes the overlap exactly-once. When the
// window is full, entries already written to the connection are trimmed
// first; if every retained entry is unwritten the executor blocks, which
// is backpressure, not loss.
type relay struct {
	node     *Node
	fromComp string
	destComp string

	mu          sync.Mutex
	cond        *sync.Cond
	buf         []relayEntry
	sent        int // buf[:sent] written to the current connection (markSent)
	replayUntil int // buf[:replayUntil] resends as replay class (reconnect window)
	closed      bool
	running     bool // run was started; close waits for it
	done        chan struct{}
	// trace is the recovery span context stamped on outbound replay-class
	// frames (set by startCell during a traced adoption, so the replayed
	// output stitches the ingress node into the recovery's trace). It is
	// cleared once the first live ingest-class batch goes out — by then
	// the recovery's replay has drained.
	trace obs.SpanContext
}

type relayEntry struct {
	tuple stream.Tuple
	class stream.TrafficClass
	at    int64 // origin enqueue timestamp, UnixNano (event-time lag basis)
}

func newRelay(n *Node, fromComp, destComp string) *relay {
	r := &relay{node: n, fromComp: fromComp, destComp: destComp, done: make(chan struct{})}
	r.cond = sync.NewCond(&r.mu)
	return r
}

// boltID names the relay inside its cell's topology.
func (r *relay) boltID() string { return "__relay/" + r.fromComp + "/" + r.destComp }

func (r *relay) Execute(t stream.Tuple, emit stream.Emit) error {
	return r.ExecuteClassed(t, stream.ClassIngest, emit)
}

// ExecuteClassed enqueues one tuple for the wire, preserving its
// admission class so a replayed tuple stays replay-class on the next
// hop.
func (r *relay) ExecuteClassed(t stream.Tuple, class stream.TrafficClass, _ stream.Emit) error {
	limit := r.node.cfg.ReplayBuffer
	r.mu.Lock()
	defer r.mu.Unlock()
	for !r.closed && len(r.buf) >= limit && r.sent == 0 {
		r.cond.Wait() // full window, nothing trimmable: backpressure
	}
	if r.closed {
		return nil
	}
	if len(r.buf) >= limit {
		// Trim the oldest sent entries to make room; they remain covered
		// by the receiver's state (or the source-regeneration backstop).
		drop := len(r.buf) - limit + 1
		if drop > r.sent {
			drop = r.sent
		}
		r.buf = append(r.buf[:0], r.buf[drop:]...)
		r.sent -= drop
		if r.replayUntil -= drop; r.replayUntil < 0 {
			r.replayUntil = 0
		}
	}
	r.buf = append(r.buf, relayEntry{tuple: t, class: class, at: time.Now().UnixNano()})
	r.cond.Signal()
	return nil
}

// setTrace arms the relay with a recovery trace context (see the trace
// field); a zero context disarms it.
func (r *relay) setTrace(tc obs.SpanContext) {
	r.mu.Lock()
	r.trace = tc
	r.mu.Unlock()
}

// start launches the sender loop.
func (r *relay) start() {
	r.mu.Lock()
	r.running = true
	r.mu.Unlock()
	go r.run()
}

// close stops the relay and waits for its sender loop, if it ran (a
// cell whose recovery failed never starts its relays).
func (r *relay) close() {
	r.mu.Lock()
	r.closed = true
	running := r.running
	r.cond.Broadcast()
	r.mu.Unlock()
	if running {
		<-r.done
	}
}

// run is the sender loop: resolve destComp's owner from the node's
// current view, connect, replay the retained window, then stream new
// entries; any error or ownership change tears the connection down and
// the loop starts over.
func (r *relay) run() {
	defer close(r.done)
	var conn *flowConn
	defer func() {
		if conn != nil {
			conn.close()
		}
	}()
	for {
		batch, cls, oldestNs, tc, ok := r.take()
		if !ok {
			return
		}
		owner, addr := r.node.ownerOf(r.destComp)
		if conn != nil && conn.owner != owner {
			conn.close() // rerouted: reconnect to the adopter
			conn = nil
		}
		if conn == nil {
			c, err := r.connect(owner, addr)
			if err != nil {
				r.node.logf("relay %s: connect %s (%s): %v", r.boltID(), owner, addr, err)
				if r.pause(50 * time.Millisecond) {
					return
				}
				continue
			}
			conn = c
			// Fresh connection: everything retained is in doubt — mark it
			// unsent and let the next iterations push it as replay class.
			r.unsendAll()
			continue
		}
		if err := conn.send(batch, cls, oldestNs, tc); err != nil {
			r.node.logf("relay %s: send to %s: %v", r.boltID(), addr, err)
			conn.close()
			conn = nil
			r.unsendAll()
			if r.pause(50 * time.Millisecond) {
				return
			}
			continue
		}
		r.markSent(len(batch))
	}
}

// take blocks for the next run of unsent same-class tuples (bounded by
// the spec batch size); they stay unsent, and so untrimmable, until
// markSent records them written. ok=false on close. A resend
// after reconnect (sent reset to 0) is forced to replay class. It also
// yields the batch's oldest enqueue timestamp (the frame's event-time
// basis) and, on replay-class batches during a traced recovery, the
// recovery's span context; the first live batch disarms the context.
func (r *relay) take() ([]stream.Tuple, stream.TrafficClass, int64, obs.SpanContext, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for !r.closed && r.sent >= len(r.buf) {
		r.cond.Wait()
	}
	if r.closed {
		return nil, 0, 0, obs.SpanContext{}, false
	}
	max := r.node.spec.Batch
	first := r.buf[r.sent]
	cls := first.class
	end := len(r.buf)
	if r.sent < r.replayUntil {
		// Inside the reconnect window: the whole stretch goes out as
		// replay class regardless of original admission class, and the
		// batch must not spill into live entries.
		cls = stream.ClassReplay
		end = r.replayUntil
	}
	out := []stream.Tuple{first.tuple}
	for len(out) < max && r.sent+len(out) < end {
		next := r.buf[r.sent+len(out)]
		if cls != stream.ClassReplay && next.class != cls {
			break
		}
		out = append(out, next.tuple)
	}
	var tc obs.SpanContext
	if cls == stream.ClassReplay {
		tc = r.trace
	} else {
		r.trace = obs.SpanContext{}
	}
	return out, cls, first.at, tc, true
}

// markSent records the n entries the last take returned as written to
// the connection, which makes them trimmable. Trims since the take only
// dropped entries before them, so they still start at r.sent.
func (r *relay) markSent(n int) {
	r.mu.Lock()
	r.sent += n
	r.cond.Broadcast()
	r.mu.Unlock()
}

// unsendAll marks the whole retained window unsent and flags it as the
// reconnect replay window (resent as replay class).
func (r *relay) unsendAll() {
	r.mu.Lock()
	r.sent = 0
	r.replayUntil = len(r.buf)
	r.cond.Broadcast()
	r.mu.Unlock()
}

// pause sleeps briefly between reconnect attempts; true means closed.
func (r *relay) pause(d time.Duration) bool {
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		r.mu.Lock()
		closed := r.closed
		r.mu.Unlock()
		if closed {
			return true
		}
		time.Sleep(5 * time.Millisecond)
	}
	return false
}

// flowConn is one established tuple stream to a peer.
type flowConn struct {
	owner string
	raw   net.Conn
	bc    *nettransport.BatchConn
	buf   []byte
}

func (r *relay) connect(owner, addr string) (*flowConn, error) {
	if owner == "" || addr == "" {
		return nil, fmt.Errorf("no live owner for %s", r.destComp)
	}
	raw, err := net.DialTimeout("tcp", addr, nettransport.DialTimeout)
	if err != nil {
		return nil, err
	}
	if _, err := raw.Write([]byte{magicFlow}); err != nil {
		_ = raw.Close()
		return nil, err
	}
	hello := flowHello{FromNode: r.node.cfg.Name, FromComp: r.fromComp, DestComp: r.destComp}
	if err := writeFlowHello(raw, hello); err != nil {
		_ = raw.Close()
		return nil, err
	}
	return &flowConn{owner: owner, raw: raw, bc: nettransport.NewBatchConn(raw, 30*time.Second)}, nil
}

// encodeFrame builds one wire frame — 36-byte flow header followed by
// the batch-codec body — in the connection's reused buffer. Factored out
// of send so the zero-allocation guard (frame_test.go) can drive it
// without a socket.
func (c *flowConn) encodeFrame(tuples []stream.Tuple, class stream.TrafficClass, sendNs, oldestNs int64, tc obs.SpanContext) ([]byte, error) {
	hdr := appendFrameHeader(c.buf[:0], sendNs, oldestNs, tc)
	body, err := stream.EncodeTupleBatch(hdr, tuples, class)
	if err != nil {
		return nil, err
	}
	c.buf = body[:0]
	return body, nil
}

func (c *flowConn) send(tuples []stream.Tuple, class stream.TrafficClass, oldestNs int64, tc obs.SpanContext) error {
	// On resend after reconnect the window is pushed as replay class so
	// downstream shed policies cannot drop recovery traffic. The caller
	// resets sent to 0 before resending; class is already per-batch.
	body, err := c.encodeFrame(tuples, class, time.Now().UnixNano(), oldestNs, tc)
	if err != nil {
		return err
	}
	return c.bc.WriteBatch(body)
}

func (c *flowConn) close() { _ = c.raw.Close() }

// writeFlowHello frames the hello with an explicit length prefix so the
// receiver can read exactly its bytes — a gob decoder reading the
// connection directly could buffer ahead into the batch frames.
func writeFlowHello(conn net.Conn, h flowHello) error {
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(&h); err != nil {
		return err
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(payload.Len()))
	if _, err := conn.Write(hdr[:]); err != nil {
		return err
	}
	_, err := conn.Write(payload.Bytes())
	return err
}

func readFlowHello(conn net.Conn) (flowHello, error) {
	var h flowHello
	var hdr [4]byte
	if _, err := io.ReadFull(conn, hdr[:]); err != nil {
		return h, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > 1<<20 {
		return h, fmt.Errorf("flow hello %d bytes exceeds cap", n)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(conn, payload); err != nil {
		return h, err
	}
	err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&h)
	return h, err
}
