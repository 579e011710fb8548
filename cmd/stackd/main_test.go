package main

import (
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"

	"diestack/internal/core"
	"diestack/internal/leakcheck"
	"diestack/internal/serve"
)

// TestServerDropsStalledClients serves through newHTTPServer with its
// read timeouts shortened: a client that stalls in its header and one
// that stalls in its body must both be disconnected, a request whose
// solve outlasts the read timeout must still be answered, and no
// goroutine may be left once the server closes.
func TestServerDropsStalledClients(t *testing.T) {
	base := runtime.NumGoroutine()
	hs := newHTTPServer(nil)
	if hs.ReadHeaderTimeout <= 0 || hs.ReadTimeout <= 0 || hs.WriteTimeout != 0 || hs.IdleTimeout < time.Minute {
		t.Fatalf("timeouts: header %v, read %v, write %v, idle %v; want header and read set, no write timeout, idle >= 1m",
			hs.ReadHeaderTimeout, hs.ReadTimeout, hs.WriteTimeout, hs.IdleTimeout)
	}
	hs.ReadHeaderTimeout, hs.ReadTimeout = 50*time.Millisecond, 100*time.Millisecond
	slow := core.Experiment{
		Name: "slow",
		Doc:  "runs for twice the read timeout",
		Runner: func(ctx context.Context, _ core.RunSpec, _ any) (any, error) {
			select {
			case <-time.After(2 * hs.ReadTimeout):
				return "done", nil
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		},
	}
	srv := serve.New(serve.Config{Experiments: []core.Experiment{slow}})
	hs.Handler = srv
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()

	const post = "POST /v1/experiments/slow HTTP/1.1\r\nHost: stackd\r\n"
	for name, stall := range map[string]string{
		"header": post,
		"body":   post + "Content-Length: 100\r\n\r\n{\"spec\":",
	} {
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := io.WriteString(conn, stall); err != nil {
			t.Fatal(err)
		}
		conn.SetReadDeadline(time.Now().Add(2 * time.Second))
		if _, err := io.ReadAll(conn); err != nil {
			t.Errorf("stalled %s: connection still open after 2s: %v", name, err)
		}
		conn.Close()
	}

	client := &http.Client{Transport: &http.Transport{}}
	resp, err := client.Post("http://"+ln.Addr().String()+"/v1/experiments/slow", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("solve longer than the read timeout: status %d, body %s", resp.StatusCode, body)
	}

	client.CloseIdleConnections()
	hs.Close()
	if err := <-served; !errors.Is(err, http.ErrServerClosed) {
		t.Fatal(err)
	}
	leakcheck.Settle(t, base)
}
