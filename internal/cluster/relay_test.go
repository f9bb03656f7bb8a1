package cluster

import (
	"io"
	"log"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sr3/internal/nettransport"
	"sr3/internal/stream"
)

// flowSink accepts tuple streams on a loopback listener and records the
// first value of every tuple it receives, however often it arrives.
type flowSink struct {
	ln   net.Listener
	mu   sync.Mutex
	seen map[int64]bool
}

func newFlowSink(t *testing.T) *flowSink {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := &flowSink{ln: ln, seen: map[int64]bool{}}
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go s.serve(conn)
		}
	}()
	return s
}

func (s *flowSink) serve(conn net.Conn) {
	defer func() { _ = conn.Close() }()
	var magic [1]byte
	if _, err := io.ReadFull(conn, magic[:]); err != nil || magic[0] != magicFlow {
		return
	}
	if _, err := readFlowHello(conn); err != nil {
		return
	}
	bc := nettransport.NewBatchConn(conn, 5*time.Second)
	for {
		body, free, err := bc.ReadBatch()
		if err != nil {
			return
		}
		_, _, _, payload, err := parseFrameHeader(body)
		if err != nil {
			free()
			return
		}
		tuples, _, err := stream.DecodeTupleBatch(payload)
		free()
		if err != nil {
			return
		}
		s.mu.Lock()
		for _, tu := range tuples {
			s.seen[tu.Values[0].(int64)] = true
		}
		s.mu.Unlock()
	}
}

func (s *flowSink) count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.seen)
}

// lineCounter counts log lines.
type lineCounter struct{ n atomic.Int64 }

func (c *lineCounter) Write(p []byte) (int, error) {
	c.n.Add(1)
	return len(p), nil
}

// TestRelayKeepsUnwrittenTuples overfills a small relay window while the
// destination has no live owner. Tuples the sender has taken but not
// written must not be trimmed as if sent: once an owner appears, every
// tuple reaches it.
func TestRelayKeepsUnwrittenTuples(t *testing.T) {
	const window, total = 8, 64
	var connectFailures lineCounter // the only lines the relay logs here
	n := &Node{
		cfg:    NodeConfig{Name: "src", ReplayBuffer: window},
		spec:   &Spec{Batch: 4},
		logger: log.New(&connectFailures, "", 0),
		view:   View{Epoch: 1, Assign: map[string]string{"sink": "dst"}},
	}
	r := newRelay(n, "count", "sink")
	r.start()
	defer r.close()

	produced := make(chan struct{})
	go func() {
		defer close(produced)
		for i := int64(1); i <= total; i++ {
			_ = r.ExecuteClassed(stream.Tuple{Values: []any{i}}, stream.ClassIngest, nil)
		}
	}()
	waitCondition(t, 5*time.Second, "a full window", func() bool {
		r.mu.Lock()
		defer r.mu.Unlock()
		return len(r.buf) == window
	})
	failed := connectFailures.n.Load()
	waitCondition(t, 5*time.Second, "connects failing against the full window", func() bool {
		return connectFailures.n.Load() >= failed+3
	})

	sink := newFlowSink(t)
	defer func() { _ = sink.ln.Close() }()
	n.mu.Lock()
	n.view = View{Epoch: 2, Assign: n.view.Assign, Members: []Member{
		{Name: "dst", Addr: sink.ln.Addr().String(), Alive: true},
	}}
	n.mu.Unlock()

	select {
	case <-produced:
	case <-time.After(10 * time.Second):
		t.Fatal("producer still blocked after the owner appeared")
	}
	waitCondition(t, 10*time.Second, "every tuple delivered", func() bool {
		return sink.count() == total
	})
}
