package queue

import (
	"net"
	"testing"
	"time"
)

func BenchmarkPushPullAck(b *testing.B) {
	br := NewBroker(time.Minute)
	defer br.Close()
	body := make([]byte, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		br.Push("bench", body, "", "", "")
		msg, ok := br.Pull("bench", 0)
		if !ok {
			b.Fatal("message missing")
		}
		br.Ack("bench", msg.ID)
	}
}

func BenchmarkRequestReply(b *testing.B) {
	br := NewBroker(time.Minute)
	defer br.Close()
	stop := make(chan struct{})
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
			}
			msg, ok := br.Pull("svc", 50*time.Millisecond)
			if ok {
				br.Reply(msg, msg.Body)
			}
		}
	}()
	defer close(stop)
	body := make([]byte, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := br.Request("svc", body, 5*time.Second); !ok {
			b.Fatal("request timed out")
		}
	}
}

func BenchmarkConcurrentProducersConsumers(b *testing.B) {
	br := NewBroker(time.Minute)
	defer br.Close()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			br.Push("par", []byte("x"), "", "", "")
			if msg, ok := br.Pull("par", time.Second); ok {
				br.Ack("par", msg.ID)
			}
		}
	})
}

// BenchmarkTransportTaskCycle is one remote consumer step over loopback
// TCP: the producer pushes a task, and the consumer's single Reply call
// answers the previous task, acks it and returns this one.
func BenchmarkTransportTaskCycle(b *testing.B) {
	br := NewBroker(time.Minute)
	defer br.Close()
	srv := NewServer(br)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	go srv.Serve(l) //nolint:errcheck
	defer srv.Close()
	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	c := NewClient(conn)
	defer c.Close()

	body := make([]byte, 256)
	br.Push("tasks", body, "replies", "", "")
	msg, ok, err := c.Pull("tasks", time.Second)
	if err != nil || !ok {
		b.Fatalf("pull: ok=%v err=%v", ok, err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		br.Push("tasks", body, "replies", "", "")
		msg, ok, err = c.Reply(msg, body, "tasks", time.Second)
		if err != nil || !ok {
			b.Fatalf("reply: ok=%v err=%v", ok, err)
		}
		rep, ok := br.Pull("replies", 0)
		if !ok {
			b.Fatal("reply missing")
		}
		br.Ack("replies", rep.ID)
	}
}
