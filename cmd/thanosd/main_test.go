package main

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/server"
	"repro/internal/server/client"
)

func TestRunFlagErrors(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "missing.thanos")
	cases := []struct {
		name   string
		args   []string
		code   int
		stderr string
	}{
		{"no listener", nil, 2, "at least one of -tcp or -uds is required"},
		{"unreadable policy", []string{"-uds", filepath.Join(t.TempDir(), "t.sock"), "-policy", missing}, 1, "read policy"},
		{"bad flag", []string{"-nosuch"}, 2, "flag provided but not defined"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var stdout, stderr strings.Builder
			if code := run(c.args, &stdout, &stderr, nil); code != c.code {
				t.Fatalf("exit %d, want %d\nstderr:\n%s", code, c.code, stderr.String())
			}
			if !strings.Contains(stderr.String(), c.stderr) {
				t.Errorf("stderr %q does not contain %q", stderr.String(), c.stderr)
			}
		})
	}
}

// lockedBuffer is a writer run's serve goroutines may share with the test.
type lockedBuffer struct {
	mu sync.Mutex
	sb strings.Builder
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.sb.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.sb.String()
}

// TestRunServesUnixSocket serves a temp-dir socket, installs three
// resources and decides over them with the client, then signals stop: run
// must drain, remove its socket and return 0.
func TestRunServesUnixSocket(t *testing.T) {
	sock := filepath.Join(t.TempDir(), "thanosd.sock")
	stop := make(chan os.Signal, 1)
	var stdout, stderr lockedBuffer
	code := make(chan int, 1)
	go func() { code <- run([]string{"-uds", sock, "-shards", "2", "-capacity", "16"}, &stdout, &stderr, stop) }()

	deadline := time.Now().Add(10 * time.Second)
	for !strings.Contains(stdout.String(), "thanosd: serving unix") {
		select {
		case c := <-code:
			t.Fatalf("run returned %d before serving\nstderr:\n%s", c, stderr.String())
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("socket not served after 10 s\nstdout:\n%s", stdout.String())
		}
		time.Sleep(5 * time.Millisecond)
	}

	c, hello, err := client.Dial(client.Config{Network: "unix", Addr: sock})
	if err != nil {
		t.Fatal(err)
	}
	if hello.Shards != 2 || hello.Capacity != 16 || hello.Dims != 3 {
		t.Errorf("hello = %+v, want 2 shards, capacity 16, 3 dims", *hello)
	}
	ops := []server.TableOp{
		{Kind: server.TableUpsert, ID: 0, Vals: []int64{5, 0, 0}},
		{Kind: server.TableUpsert, ID: 1, Vals: []int64{1, 0, 0}},
		{Kind: server.TableUpsert, ID: 2, Vals: []int64{9, 0, 0}},
	}
	sts, err := c.Apply(ops, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(sts, []byte{server.StatusOK, server.StatusOK, server.StatusOK}) {
		t.Fatalf("apply statuses %v", sts)
	}
	// The default policy is min over cpu: resource 1 for every key.
	ids, err := c.Decide([]uint64{1, 2, 3, 4}, []uint16{0, 0, 0, 0}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(ids, []int32{1, 1, 1, 1}) {
		t.Fatalf("decided %v, want [1 1 1 1]", ids)
	}
	c.Close()

	stop <- syscall.SIGTERM
	select {
	case got := <-code:
		if got != 0 {
			t.Fatalf("exit %d after stop, want 0\nstderr:\n%s", got, stderr.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("run did not return 10 s after stop")
	}
	if !strings.Contains(stdout.String(), "draining") {
		t.Errorf("stdout %q does not report the drain", stdout.String())
	}
	if _, err := os.Stat(sock); !os.IsNotExist(err) {
		t.Errorf("socket %s still present after drain (stat: %v)", sock, err)
	}
}
