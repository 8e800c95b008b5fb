package taskmanager

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/executor"
	"repro/internal/queue"
)

// frameCounter is a net.Conn that tallies the RPC request frames
// written through it by method name. The rpc client writes each frame
// with exactly one Write, so one Write is one frame.
type frameCounter struct {
	net.Conn
	mu      sync.Mutex
	methods map[string]int
}

func (c *frameCounter) Write(p []byte) (int, error) {
	// Frame layout: 4-byte length, 1-byte type, 8-byte stream id,
	// 2-byte method length, method, payload.
	if len(p) >= 15 {
		mlen := int(binary.BigEndian.Uint16(p[13:15]))
		if 15+mlen <= len(p) {
			c.mu.Lock()
			c.methods[string(p[15:15+mlen])]++
			c.mu.Unlock()
		}
	}
	return c.Conn.Write(p)
}

func (c *frameCounter) counts() (map[string]int, int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]int, len(c.methods))
	total := 0
	for m, n := range c.methods {
		out[m] = n
		total += n
	}
	return out, total
}

// startRemoteTM runs a TM whose queue connection is a real loopback
// TCP link to a queue.Server, counted frame by frame.
func startRemoteTM(t *testing.T, ex executor.Executor, pullers int) (*TM, *queue.Broker, *frameCounter) {
	t.Helper()
	broker := queue.NewBroker(time.Minute)
	srv := queue.NewServer(broker)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l) //nolint:errcheck
	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	fc := &frameCounter{Conn: conn, methods: make(map[string]int)}
	client := queue.NewClient(fc)
	tm, err := New(Config{
		ID:        "tm-test",
		Queue:     client,
		Executors: map[string]executor.Executor{"parsl": ex},
		Pullers:   pullers,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		tm.Close()
		client.Close()
		srv.Close()
		broker.Close()
	})
	return tm, broker, fc
}

// TestRemoteTMOneQueueCallPerTask: a busy remote TM spends exactly one
// queue RPC per task — the reply that also fetches the next task — plus
// a constant number of pulls and the registration push.
func TestRemoteTMOneQueueCallPerTask(t *testing.T) {
	_, broker, fc := startRemoteTM(t, newFakeExecutor(), 2)
	const n = 200
	start := time.Now()
	for i := 0; i < n; i++ {
		rep := request(t, broker, Task{ID: fmt.Sprintf("p%d", i), Kind: "ping"})
		if !rep.OK {
			t.Fatalf("ping %d failed: %+v", i, rep)
		}
	}
	methods, total := fc.counts()
	if methods["queue.reply"] != n {
		t.Fatalf("queue.reply frames = %d, want one per task (%d): %v", methods["queue.reply"], n, methods)
	}
	if methods["queue.push"] != 1 || methods["queue.ack"] != 0 {
		t.Fatalf("want only the registration push and no acks: %v", methods)
	}
	// Pulls happen only when a puller holds no message: once at start
	// and after each idle poll timeout.
	idlePolls := 2 * (int(time.Since(start)/pollTimeout) + 1)
	if methods["queue.pull"] > idlePolls {
		t.Fatalf("queue.pull frames = %d, want at most %d: %v", methods["queue.pull"], idlePolls, methods)
	}
	if total > n+1+idlePolls {
		t.Fatalf("%d request frames for %d tasks: %v", total, n, methods)
	}
}

// blockingExecutor holds every invocation until its context ends, so a
// test can stop a TM with a task provably in hand.
type blockingExecutor struct {
	*fakeExecutor
	started chan struct{}
}

func (b *blockingExecutor) Invoke(ctx context.Context, id string, input any) (executor.Result, error) {
	b.started <- struct{}{}
	<-ctx.Done()
	return executor.Result{}, ctx.Err()
}

// TestKilledRemoteTMSendsNothing: a TM killed mid-task writes no frame
// at all — no reply, no ack, no pull — and its task stays claimed at
// the broker for the dead-TM watchdog to purge.
func TestKilledRemoteTMSendsNothing(t *testing.T) {
	ex := &blockingExecutor{fakeExecutor: newFakeExecutor(), started: make(chan struct{}, 1)}
	ex.deployed["dlhub/noop"] = 1
	tm, broker, fc := startRemoteTM(t, ex, 1)
	body, _ := json.Marshal(Task{ID: "k1", Kind: "run", Servable: "dlhub/noop", Input: "x"})
	broker.Push(TaskQueue("tm-test"), body, "replies", "corr", "")
	select {
	case <-ex.started:
	case <-time.After(5 * time.Second):
		t.Fatal("task never reached the executor")
	}
	_, before := fc.counts()
	tm.Kill()
	if methods, after := fc.counts(); after != before {
		t.Fatalf("killed TM wrote %d frames: %v", after-before, methods)
	}
	if broker.Len("replies") != 0 {
		t.Fatal("killed TM delivered a reply")
	}
	if broker.InFlight(TaskQueue("tm-test")) != 1 {
		t.Fatal("the killed TM's task must stay claimed")
	}
}

// TestCloseWhileReplyParked: a TM closed while its reply call is parked
// waiting for the next task either handles the task the broker hands it
// or never claims it. No task may end claimed but unanswered.
func TestCloseWhileReplyParked(t *testing.T) {
	for i := 0; i < 20; i++ {
		broker := queue.NewBroker(time.Minute)
		tm, err := New(Config{
			ID:        "tm-test",
			Queue:     BrokerAdapter{B: broker},
			Executors: map[string]executor.Executor{"parsl": newFakeExecutor()},
			Pullers:   1,
		})
		if err != nil {
			t.Fatal(err)
		}
		// One task, so the only puller is parked in its reply call.
		if rep := request(t, broker, Task{ID: "warm", Kind: "ping"}); !rep.OK {
			t.Fatalf("warm-up ping failed: %+v", rep)
		}
		closed := make(chan struct{})
		go func() { tm.Close(); close(closed) }()
		time.Sleep(time.Duration(i) * 50 * time.Microsecond)
		body, _ := json.Marshal(Task{ID: "late", Kind: "ping"})
		q := TaskQueue("tm-test")
		broker.Push(q, body, "replies", "corr", "")
		<-closed
		replied, ready, claimed := broker.Len("replies"), broker.Len(q), broker.InFlight(q)
		broker.Close()
		if claimed != 0 || replied+ready != 1 {
			t.Fatalf("iteration %d: replied=%d ready=%d claimed=%d; want the task handled or untouched", i, replied, ready, claimed)
		}
	}
}
