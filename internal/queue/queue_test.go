package queue

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestPushPull(t *testing.T) {
	b := NewBroker(time.Second)
	defer b.Close()
	id := b.Push("tasks", []byte("work"), "", "", "")
	if id == "" {
		t.Fatal("Push should return an ID")
	}
	msg, ok := b.Pull("tasks", 0)
	if !ok {
		t.Fatal("Pull should find the message")
	}
	if string(msg.Body) != "work" || msg.ID != id || msg.Attempt != 1 {
		t.Fatalf("wrong message: %+v", msg)
	}
	if !b.Ack("tasks", msg.ID) {
		t.Fatal("Ack should succeed")
	}
}

func TestPullTimeout(t *testing.T) {
	b := NewBroker(time.Second)
	defer b.Close()
	start := time.Now()
	_, ok := b.Pull("empty", 50*time.Millisecond)
	if ok {
		t.Fatal("Pull on empty queue should time out")
	}
	if time.Since(start) < 45*time.Millisecond {
		t.Fatal("Pull returned before timeout")
	}
}

func TestPullWakesWaiter(t *testing.T) {
	b := NewBroker(time.Second)
	defer b.Close()
	done := make(chan Message, 1)
	go func() {
		msg, ok := b.Pull("tasks", 2*time.Second)
		if ok {
			done <- msg
		}
	}()
	time.Sleep(20 * time.Millisecond)
	b.Push("tasks", []byte("late"), "", "", "")
	select {
	case msg := <-done:
		if string(msg.Body) != "late" {
			t.Fatalf("wrong body %q", msg.Body)
		}
	case <-time.After(time.Second):
		t.Fatal("waiter not woken")
	}
}

func TestVisibilityTimeoutRedelivers(t *testing.T) {
	b := NewBroker(50 * time.Millisecond)
	defer b.Close()
	b.Push("tasks", []byte("flaky"), "", "", "")
	msg, ok := b.Pull("tasks", 0)
	if !ok {
		t.Fatal("first delivery missing")
	}
	// Do not ack; expect redelivery.
	msg2, ok := b.Pull("tasks", time.Second)
	if !ok {
		t.Fatal("message was not redelivered")
	}
	if msg2.ID != msg.ID {
		t.Fatal("redelivered message has different ID")
	}
	if msg2.Attempt != 2 {
		t.Fatalf("attempt should be 2, got %d", msg2.Attempt)
	}
	b.Ack("tasks", msg2.ID)
	if _, ok := b.Pull("tasks", 100*time.Millisecond); ok {
		t.Fatal("acked message should not be redelivered")
	}
}

func TestNackImmediateRequeue(t *testing.T) {
	b := NewBroker(time.Hour)
	defer b.Close()
	b.Push("tasks", []byte("retry-me"), "", "", "")
	msg, _ := b.Pull("tasks", 0)
	if !b.Nack("tasks", msg.ID) {
		t.Fatal("Nack should succeed")
	}
	msg2, ok := b.Pull("tasks", 0)
	if !ok || string(msg2.Body) != "retry-me" {
		t.Fatal("nacked message should be immediately available")
	}
}

func TestAckUnknown(t *testing.T) {
	b := NewBroker(time.Second)
	defer b.Close()
	if b.Ack("tasks", "nope") {
		t.Fatal("Ack of unknown message should be false")
	}
	if b.Nack("tasks", "nope") {
		t.Fatal("Nack of unknown message should be false")
	}
}

func TestFIFOOrdering(t *testing.T) {
	b := NewBroker(time.Second)
	defer b.Close()
	for i := 0; i < 20; i++ {
		b.Push("tasks", []byte{byte(i)}, "", "", "")
	}
	for i := 0; i < 20; i++ {
		msg, ok := b.Pull("tasks", 0)
		if !ok || msg.Body[0] != byte(i) {
			t.Fatalf("FIFO violated at %d: %+v", i, msg)
		}
		b.Ack("tasks", msg.ID)
	}
}

func TestRequestReply(t *testing.T) {
	b := NewBroker(time.Second)
	defer b.Close()
	go func() {
		msg, ok := b.Pull("svc", 2*time.Second)
		if !ok {
			return
		}
		b.Reply(msg, append([]byte("echo:"), msg.Body...))
	}()
	out, ok := b.Request("svc", []byte("hi"), 2*time.Second)
	if !ok {
		t.Fatal("Request timed out")
	}
	if string(out) != "echo:hi" {
		t.Fatalf("wrong reply %q", out)
	}
}

func TestRequestTimeout(t *testing.T) {
	b := NewBroker(time.Second)
	defer b.Close()
	if _, ok := b.Request("nobody-home", []byte("x"), 50*time.Millisecond); ok {
		t.Fatal("Request with no consumer should time out")
	}
}

// Property: every pushed message is eventually delivered exactly once
// when consumers ack promptly (at-least-once collapses to exactly-once
// without failures).
func TestAllMessagesDelivered(t *testing.T) {
	b := NewBroker(time.Minute)
	defer b.Close()
	const n = 200
	const consumers = 8
	seen := make(map[string]int)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for c := 0; c < consumers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				msg, ok := b.Pull("bulk", 200*time.Millisecond)
				if !ok {
					return
				}
				mu.Lock()
				seen[string(msg.Body)]++
				mu.Unlock()
				b.Ack("bulk", msg.ID)
			}
		}()
	}
	for i := 0; i < n; i++ {
		b.Push("bulk", []byte(fmt.Sprintf("m%d", i)), "", "", "")
	}
	wg.Wait()
	if len(seen) != n {
		t.Fatalf("delivered %d distinct messages, want %d", len(seen), n)
	}
	for k, v := range seen {
		if v != 1 {
			t.Fatalf("message %s delivered %d times", k, v)
		}
	}
}

func TestQueueIsolation(t *testing.T) {
	b := NewBroker(time.Second)
	defer b.Close()
	b.Push("a", []byte("for-a"), "", "", "")
	if _, ok := b.Pull("b", 0); ok {
		t.Fatal("queue b should be empty")
	}
	if msg, ok := b.Pull("a", 0); !ok || string(msg.Body) != "for-a" {
		t.Fatal("queue a should hold its message")
	}
}

func TestLenAndInFlight(t *testing.T) {
	b := NewBroker(time.Minute)
	defer b.Close()
	b.Push("q", []byte("1"), "", "", "")
	b.Push("q", []byte("2"), "", "", "")
	if b.Len("q") != 2 || b.InFlight("q") != 0 {
		t.Fatalf("want 2 ready/0 inflight, got %d/%d", b.Len("q"), b.InFlight("q"))
	}
	msg, _ := b.Pull("q", 0)
	if b.Len("q") != 1 || b.InFlight("q") != 1 {
		t.Fatalf("want 1 ready/1 inflight, got %d/%d", b.Len("q"), b.InFlight("q"))
	}
	b.Ack("q", msg.ID)
	if b.InFlight("q") != 0 {
		t.Fatal("ack should clear inflight")
	}
}

func TestNewIDUnique(t *testing.T) {
	f := func(_ int) bool { return NewID() != NewID() }
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// --- transport tests ---------------------------------------------------

func startTransport(t *testing.T, b *Broker) *Client {
	t.Helper()
	srv := NewServer(b)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l) //nolint:errcheck
	t.Cleanup(func() { srv.Close() })
	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	c := NewClient(conn)
	t.Cleanup(func() { c.Close() })
	return c
}

func TestTransportPushPullAck(t *testing.T) {
	b := NewBroker(time.Minute)
	defer b.Close()
	c := startTransport(t, b)

	id, err := c.Push("remote", []byte("payload"), "", "", "")
	if err != nil || id == "" {
		t.Fatalf("push failed: %v", err)
	}
	msg, ok, err := c.Pull("remote", time.Second)
	if err != nil || !ok {
		t.Fatalf("pull failed: ok=%v err=%v", ok, err)
	}
	if !bytes.Equal(msg.Body, []byte("payload")) {
		t.Fatalf("wrong body %q", msg.Body)
	}
	if err := c.Ack("remote", msg.ID); err != nil {
		t.Fatal(err)
	}
	if b.InFlight("remote") != 0 {
		t.Fatal("remote ack not applied")
	}
}

func TestTransportRequestReply(t *testing.T) {
	b := NewBroker(time.Minute)
	defer b.Close()
	c := startTransport(t, b)

	// Remote consumer loop over a second client.
	consumer := startTransport(t, b)
	go func() {
		msg, ok, err := consumer.Pull("svc", 2*time.Second)
		if err != nil || !ok {
			return
		}
		consumer.Reply(msg, []byte("pong"), "", 0) //nolint:errcheck
	}()

	out, ok, err := c.Request("svc", []byte("ping"), 2*time.Second)
	if err != nil || !ok {
		t.Fatalf("request failed: ok=%v err=%v", ok, err)
	}
	if string(out) != "pong" {
		t.Fatalf("wrong reply %q", out)
	}
}

// TestTransportReplyNext: one remote Reply acks the original, delivers
// the reply body with the request's correlation ID and tenant, and
// returns the consumer's next message already claimed; with an empty
// next it pulls nothing.
func TestTransportReplyNext(t *testing.T) {
	b := NewBroker(time.Minute)
	defer b.Close()
	c := startTransport(t, b)

	b.Push("tasks", []byte("first"), "replies", "corr-1", "acme")
	b.Push("tasks", []byte("second"), "replies", "corr-2", "acme")
	msg, ok, err := c.Pull("tasks", time.Second)
	if err != nil || !ok || string(msg.Body) != "first" {
		t.Fatalf("pull: %q ok=%v err=%v", msg.Body, ok, err)
	}
	next, ok, err := c.Reply(msg, []byte("answer-1"), "tasks", time.Second)
	if err != nil || !ok {
		t.Fatalf("reply: ok=%v err=%v", ok, err)
	}
	if string(next.Body) != "second" || next.CorrelationID != "corr-2" || next.Attempt != 1 {
		t.Fatalf("next message wrong: %+v", next)
	}
	// The original is acked; the next message is claimed in its place.
	if n := b.InFlight("tasks"); n != 1 {
		t.Fatalf("in flight after reply = %d, want 1 (only the next message)", n)
	}
	if b.Len("tasks") != 0 {
		t.Fatal("next message still ready: it was not claimed")
	}
	rep, ok := b.Pull("replies", time.Second)
	if !ok || string(rep.Body) != "answer-1" || rep.CorrelationID != "corr-1" || rep.Tenant != "acme" {
		t.Fatalf("reply delivery wrong: %+v ok=%v", rep, ok)
	}

	// Empty next: reply and ack only, nothing pulled.
	b.Push("tasks", []byte("third"), "", "", "")
	none, ok, err := c.Reply(next, []byte("answer-2"), "", time.Second)
	if err != nil || ok || none.ID != "" {
		t.Fatalf("reply with empty next pulled %+v ok=%v err=%v", none, ok, err)
	}
	if b.InFlight("tasks") != 0 || b.Len("tasks") != 1 {
		t.Fatalf("empty next: in flight %d ready %d, want 0 and 1", b.InFlight("tasks"), b.Len("tasks"))
	}
	if rep, ok := b.Pull("replies", time.Second); !ok || string(rep.Body) != "answer-2" {
		t.Fatalf("second reply missing: %+v", rep)
	}

	// A next queue that stays empty times out with ok false.
	msg, _, _ = c.Pull("tasks", time.Second)
	if _, ok, err := c.Reply(msg, nil, "tasks", 20*time.Millisecond); err != nil || ok {
		t.Fatalf("reply on an empty next queue: ok=%v err=%v", ok, err)
	}
	if b.InFlight("tasks") != 0 {
		t.Fatal("reply without ReplyTo must still ack")
	}
}

func TestTransportPullTimeout(t *testing.T) {
	b := NewBroker(time.Minute)
	defer b.Close()
	c := startTransport(t, b)
	_, ok, err := c.Pull("empty", 50*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("pull on empty remote queue should time out")
	}
}

// TestRequestCleansReplyQueue: a completed request must not leave its
// per-request reply queue behind in the broker (the map would otherwise
// grow by one entry per request, forever).
func TestRequestCleansReplyQueue(t *testing.T) {
	b := NewBroker(time.Minute)
	defer b.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		msg, ok := b.Pull("work", 2*time.Second)
		if !ok {
			t.Error("no request arrived")
			return
		}
		b.Reply(msg, []byte("pong"))
	}()
	if _, ok := b.Request("work", []byte("ping"), 2*time.Second); !ok {
		t.Fatal("request failed")
	}
	<-done
	if n := b.Queues(); n != 1 { // only "work" remains
		t.Fatalf("reply queue leaked: %d queues, want 1", n)
	}
}

// TestCanceledRequestReplyGC: a request canceled after its task was
// pulled strands the late reply; the sweeper must expire it and collect
// the orphaned reply queue.
func TestCanceledRequestReplyGC(t *testing.T) {
	b := NewBroker(50 * time.Millisecond) // fast visibility -> fast GC
	defer b.Close()
	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() {
		_, err := b.RequestCtx(ctx, "work", []byte("ping"), "")
		errCh <- err
	}()
	msg, ok := b.Pull("work", 2*time.Second) // consumer claims the task
	if !ok {
		t.Fatal("no request arrived")
	}
	cancel()
	if err := <-errCh; err != context.Canceled {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	b.Reply(msg, []byte("too late")) // recreates the reply queue
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if b.Queues() == 1 { // only "work" survives
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("stranded reply queue not collected: %d queues", b.Queues())
}

// TestRequestCtxUnboundedContext: a ctx with neither deadline nor
// cancel must wait for the reply, not fail immediately.
func TestRequestCtxUnboundedContext(t *testing.T) {
	b := NewBroker(time.Minute)
	defer b.Close()
	go func() {
		msg, ok := b.Pull("work", 2*time.Second)
		if ok {
			time.Sleep(50 * time.Millisecond)
			b.Reply(msg, []byte("pong"))
		}
	}()
	reply, err := b.RequestCtx(context.Background(), "work", []byte("ping"), "")
	if err != nil || string(reply) != "pong" {
		t.Fatalf("unbounded RequestCtx: %q %v", reply, err)
	}
}

// TestPurge: purging a queue withdraws ready AND claimed-but-unacked
// messages (the dead-consumer cleanup), leaves parked consumers alone,
// and prevents the visibility sweeper from resurrecting claimed tasks.
func TestPurge(t *testing.T) {
	b := NewBroker(50 * time.Millisecond)
	defer b.Close()
	b.Push("tasks", []byte("claimed"), "", "", "")
	b.Push("tasks", []byte("ready-1"), "", "", "")
	b.Push("tasks", []byte("ready-2"), "", "", "")
	if _, ok := b.Pull("tasks", time.Second); !ok { // claim one, never ack
		t.Fatal("no message to claim")
	}
	if n := b.Purge("tasks"); n != 3 {
		t.Fatalf("purged %d, want 3 (1 claimed + 2 ready)", n)
	}
	if b.Len("tasks") != 0 || b.InFlight("tasks") != 0 {
		t.Fatalf("queue not empty after purge: ready=%d inflight=%d", b.Len("tasks"), b.InFlight("tasks"))
	}
	// The claimed message's visibility timeout must NOT redeliver it.
	time.Sleep(120 * time.Millisecond)
	if b.Len("tasks") != 0 {
		t.Fatal("purged claimed message was redelivered by the sweeper")
	}
	// The queue still works for new traffic.
	b.Push("tasks", []byte("fresh"), "", "", "")
	if msg, ok := b.Pull("tasks", time.Second); !ok || string(msg.Body) != "fresh" {
		t.Fatalf("post-purge delivery broken: %v %v", msg, ok)
	}
}
