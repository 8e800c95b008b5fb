package netsim

import (
	"bytes"
	"io"
	"net"
	"runtime"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

// pipePair returns both ends of a real TCP connection on loopback.
func pipePair(t *testing.T) (client, server net.Conn) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	done := make(chan struct{})
	go func() {
		defer close(done)
		c, err := l.Accept()
		if err != nil {
			return
		}
		server = c
	}()
	client, err = net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	<-done
	if server == nil {
		t.Fatal("accept failed")
	}
	t.Cleanup(func() { client.Close(); server.Close() })
	return client, server
}

func TestWrapPreservesData(t *testing.T) {
	c, s := pipePair(t)
	wc := Wrap(c, Profile{OneWay: time.Millisecond})
	defer wc.Close()

	msg := []byte("hello dlhub")
	go wc.Write(msg)
	got := make([]byte, len(msg))
	if _, err := io.ReadFull(s, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("data corrupted: %q", got)
	}
}

func TestWrapAppliesLatency(t *testing.T) {
	c, s := pipePair(t)
	delay := 20 * time.Millisecond
	wc := Wrap(c, Profile{OneWay: delay})
	defer wc.Close()

	start := time.Now()
	go wc.Write([]byte("x"))
	buf := make([]byte, 1)
	if _, err := io.ReadFull(s, buf); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < delay {
		t.Fatalf("delivery too fast: %v < %v", elapsed, delay)
	}
}

func TestRoundTripIsFullRTT(t *testing.T) {
	c, s := pipePair(t)
	rtt := 30 * time.Millisecond
	wc := Wrap(c, RTT(rtt, 0))
	ws := Wrap(s, RTT(rtt, 0))
	defer wc.Close()
	defer ws.Close()

	// Echo server.
	go func() {
		buf := make([]byte, 1)
		if _, err := io.ReadFull(ws, buf); err != nil {
			return
		}
		ws.Write(buf)
	}()

	start := time.Now()
	wc.Write([]byte("p"))
	buf := make([]byte, 1)
	if _, err := io.ReadFull(wc, buf); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if elapsed < rtt {
		t.Fatalf("round trip %v < configured RTT %v", elapsed, rtt)
	}
	if elapsed > rtt*3 {
		t.Fatalf("round trip %v way above configured RTT %v", elapsed, rtt)
	}
}

func TestBandwidthSerialization(t *testing.T) {
	c, s := pipePair(t)
	// 1 MB/s: 100 KB should take >= ~100ms to serialize.
	wc := Wrap(c, Profile{Bandwidth: 1e6})
	defer wc.Close()

	payload := make([]byte, 100_000)
	start := time.Now()
	go wc.Write(payload)
	got := make([]byte, len(payload))
	if _, err := io.ReadFull(s, got); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 90*time.Millisecond {
		t.Fatalf("bandwidth not enforced: 100KB at 1MB/s arrived in %v", elapsed)
	}
}

func TestOrderingPreservedUnderConcurrentWrites(t *testing.T) {
	c, s := pipePair(t)
	wc := Wrap(c, Profile{OneWay: time.Millisecond})
	defer wc.Close()

	var wg sync.WaitGroup
	const n = 50
	// Sequential writes from one goroutine must arrive in order.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			wc.Write([]byte{byte(i)})
		}
	}()
	got := make([]byte, n)
	if _, err := io.ReadFull(s, got); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if got[i] != byte(i) {
			t.Fatalf("out of order at %d: got %d", i, got[i])
		}
	}
}

// TestZeroCostWritesInline: a profile with no delay and no bandwidth
// limit starts no pump goroutine, and each Write has reached the socket
// by the time it returns.
func TestZeroCostWritesInline(t *testing.T) {
	c, s := pipePair(t)
	if !(Profile{}).ZeroCost() || RTT(0, 0) != (Profile{}) {
		t.Fatal("empty profile must be zero-cost")
	}
	if (Profile{Bandwidth: 1e9}).ZeroCost() || (Profile{OneWay: time.Microsecond}).ZeroCost() {
		t.Fatal("a delay or a bandwidth limit is not zero-cost")
	}
	before := runtime.NumGoroutine()
	wc := Wrap(c, Profile{})
	defer wc.Close()
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("zero-cost Wrap started %d goroutines", after-before)
	}
	if wc.sendq != nil {
		t.Fatal("zero-cost Conn has a send queue")
	}
	if n, err := wc.Write([]byte("inline")); n != 6 || err != nil {
		t.Fatalf("write: n=%d err=%v", n, err)
	}
	got := make([]byte, 6)
	s.SetReadDeadline(time.Now().Add(time.Second)) //nolint:errcheck
	if _, err := io.ReadFull(s, got); err != nil || string(got) != "inline" {
		t.Fatalf("inline write not on the wire: %q %v", got, err)
	}
}

// TestZeroCostOrderingUnderConcurrentWriters: inline writes from many
// goroutines never interleave — every record arrives contiguous, and
// each writer's records arrive in the order it wrote them.
func TestZeroCostOrderingUnderConcurrentWriters(t *testing.T) {
	c, s := pipePair(t)
	wc := Wrap(c, Profile{})
	defer wc.Close()
	const writers, perWriter, recLen = 8, 200, 64
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				rec := bytes.Repeat([]byte{byte(w)}, recLen)
				rec[1] = byte(i)
				if _, err := wc.Write(rec); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	next := make([]int, writers)
	rec := make([]byte, recLen)
	for n := 0; n < writers*perWriter; n++ {
		if _, err := io.ReadFull(s, rec); err != nil {
			t.Fatal(err)
		}
		w := int(rec[0])
		if w >= writers || int(rec[1]) != next[w]%256 {
			t.Fatalf("record %d: writer %d seq %d, want seq %d", n, w, rec[1], next[w])
		}
		for i := 2; i < recLen; i++ {
			if rec[i] != byte(w) {
				t.Fatalf("record %d interleaved with another writer's bytes", n)
			}
		}
		next[w]++
	}
	wg.Wait()
}

func TestCloseIsIdempotent(t *testing.T) {
	c, _ := pipePair(t)
	wc := Wrap(c, Profile{})
	if err := wc.Close(); err != nil {
		t.Fatal(err)
	}
	if err := wc.Close(); err != nil {
		t.Fatalf("second close should be nil, got %v", err)
	}
}

func TestWriteAfterCloseFails(t *testing.T) {
	c, _ := pipePair(t)
	wc := Wrap(c, Profile{})
	wc.Close()
	if _, err := wc.Write([]byte("x")); err == nil {
		t.Fatal("write after close should fail")
	}
}

func TestListenerWrapsAccepted(t *testing.T) {
	raw, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	l := NewListener(raw, Profile{OneWay: 10 * time.Millisecond})
	defer l.Close()

	go func() {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		conn.Write([]byte("pong"))
	}()

	c, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	start := time.Now()
	buf := make([]byte, 4)
	if _, err := io.ReadFull(c, buf); err != nil {
		t.Fatal(err)
	}
	if time.Since(start) < 10*time.Millisecond {
		t.Fatal("accepted conn not shaped")
	}
}

func TestDialer(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			go io.Copy(c, c)
		}
	}()

	d := Dialer{P: Profile{OneWay: 5 * time.Millisecond}, Timeout: time.Second}
	conn, err := d.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	start := time.Now()
	conn.Write([]byte("a"))
	buf := make([]byte, 1)
	if _, err := io.ReadFull(conn, buf); err != nil {
		t.Fatal(err)
	}
	// Outbound shaped 5ms; echo return unshaped.
	if time.Since(start) < 5*time.Millisecond {
		t.Fatal("dialer conn not shaped")
	}
}

func TestTopologySymmetric(t *testing.T) {
	topo := NewTopology()
	p := RTT(20*time.Millisecond, 1e9)
	topo.SetLink(HostEC2, HostCooley, p)
	if got := topo.Link(HostCooley, HostEC2); got != p {
		t.Fatalf("link not symmetric: %+v", got)
	}
	if got := topo.Link(HostEC2, HostEC2); got != (Profile{}) {
		t.Fatalf("self link should be zero, got %+v", got)
	}
}

func TestPaperTopology(t *testing.T) {
	topo := Paper(20700*time.Microsecond, 170*time.Microsecond, 1e8, 5e9)
	wan := topo.Link(HostEC2, HostCooley)
	if wan.OneWay != 10350*time.Microsecond {
		t.Fatalf("WAN one-way should be half of 20.7ms, got %v", wan.OneWay)
	}
	lab := topo.Link(HostCooley, HostCluster)
	if lab.OneWay != 85*time.Microsecond {
		t.Fatalf("lab one-way should be 85us, got %v", lab.OneWay)
	}
	direct := topo.Link(HostEC2, HostCluster)
	if direct.OneWay <= wan.OneWay {
		t.Fatal("EC2->cluster should be longer than EC2->Cooley")
	}
}

// Property: RTT() always halves the round trip exactly.
func TestRTTProperty(t *testing.T) {
	f := func(ms uint16) bool {
		rtt := time.Duration(ms) * time.Millisecond
		p := RTT(rtt, 0)
		return p.OneWay*2 == rtt
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
