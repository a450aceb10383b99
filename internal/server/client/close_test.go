package client

import (
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/server"
)

// readers counts the goroutines running a client's reply reader.
func readers() int {
	buf := make([]byte, 1<<20)
	return strings.Count(string(buf[:runtime.Stack(buf, true)]), "client.(*Client).readLoop(")
}

// TestCloseJoinsReader: Close returns only after the connection's reader
// has exited, also when the reader holds a reply and waits for the state
// lock that a caller holds. On one P, the reader that the caller's unlock
// wakes cannot run before Close returns unless Close waits for it.
func TestCloseJoinsReader(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	sock := t.TempDir() + "/c.sock"
	l, err := net.Listen("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	peer := make(chan net.Conn, 1)
	go func() {
		nc, err := l.Accept()
		if err != nil {
			close(peer)
			return
		}
		// Answer the handshake Dial opens with.
		fr := server.NewFrameReader(nc, server.MaxPayload)
		if _, seq, _, err := fr.Next(); err == nil {
			nc.Write(server.AppendHelloAck(nil, seq, server.HelloInfo{Version: server.Version, Dims: 1, Capacity: 8, Shards: 1, Outputs: 1}))
		}
		peer <- nc
	}()
	before := readers()
	c, _, err := Dial(Config{Network: "unix", Addr: sock})
	if err != nil {
		t.Fatal(err)
	}
	nc, ok := <-peer
	if !ok {
		t.Fatal("accept failed")
	}
	defer nc.Close()

	c.mu.Lock() // a caller in its state transition
	if _, err := nc.Write(server.AppendHelloAck(nil, 99, server.HelloInfo{})); err != nil {
		c.mu.Unlock()
		t.Fatal(err)
	}
	waitReaderAtLock(t)
	c.mu.Unlock()
	c.Close()
	if n := readers(); n != before {
		t.Fatalf("%d readers after Close, want %d: Close returned before its reader exited", n, before)
	}
}

// waitReaderAtLock waits until the reader has read a frame and is blocked
// on the client's state lock.
func waitReaderAtLock(t *testing.T) {
	t.Helper()
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
			if strings.Contains(g, "client.(*Client).readLoop(") && strings.Contains(g, "sync.(*Mutex).Lock") {
				return
			}
		}
	}
	t.Fatal("the reader never reached the state lock")
}
