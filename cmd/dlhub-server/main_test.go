package main

import (
	"io"
	"net"
	"net/http"
	"testing"
	"time"
)

// TestHTTPServerDeadlines: the server bounds header reads and idle
// keep-alives but sets no write deadline (SSE streams are long-lived).
func TestHTTPServerDeadlines(t *testing.T) {
	srv := newHTTPServer(http.NotFoundHandler())
	if srv.ReadHeaderTimeout != readHeaderTimeout || srv.IdleTimeout != idleTimeout {
		t.Fatalf("deadlines not set: header=%v idle=%v", srv.ReadHeaderTimeout, srv.IdleTimeout)
	}
	if srv.ReadHeaderTimeout <= 0 || srv.IdleTimeout <= 0 {
		t.Fatal("deadlines must be positive")
	}
	if srv.WriteTimeout != 0 || srv.ReadTimeout != 0 {
		t.Fatalf("write/read timeouts would cut SSE streams: write=%v read=%v", srv.WriteTimeout, srv.ReadTimeout)
	}
}

// TestPartialHeaderConnectionClosed: a client that sends part of a
// request header and stalls is disconnected once the header deadline
// passes, instead of holding the connection open. The test shortens
// the deadline on the server it builds so that it runs quickly.
func TestPartialHeaderConnectionClosed(t *testing.T) {
	srv := newHTTPServer(http.NotFoundHandler())
	srv.ReadHeaderTimeout = 100 * time.Millisecond
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l) //nolint:errcheck
	defer srv.Close()

	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("GET /api/v2/healthz HTTP/1.1\r\nHost: dlhub\r\n")); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	conn.SetReadDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck
	if _, err := io.ReadAll(conn); err != nil {
		t.Fatalf("connection not closed by the server: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("server took %v to drop a stalled header", elapsed)
	}
}
