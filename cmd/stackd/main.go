// Command stackd serves the experiment catalog over HTTP: every paper
// figure, table, and extension at POST /v1/experiments/<name>, with
// canonical-request caching, in-flight dedup, and load shedding (see
// internal/serve).
//
// Usage:
//
//	stackd -addr :8080
//	curl -s localhost:8080/v1/experiments | jq .
//	curl -s -X POST localhost:8080/v1/experiments/memory-thermal \
//	    -d '{"spec":{"grid":32},"params":{"capacity_mb":32}}'
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"time"

	"diestack/internal/core"
	"diestack/internal/serve"
)

// stackd drops a client that stalls: a request's header must arrive
// within readHeaderTimeout and the whole request, body included, within
// readTimeout, and a keep-alive connection closes after idleTimeout
// without a request. There is no write timeout, because a cold solve
// can run for seconds; net/http clears the read deadline once the
// handler has read the body, so readTimeout never cuts a solve short.
const (
	readHeaderTimeout = 10 * time.Second
	readTimeout       = 30 * time.Second
	idleTimeout       = 2 * time.Minute
)

// newHTTPServer wraps h in the http.Server stackd listens with.
func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		IdleTimeout:       idleTimeout,
	}
}

func main() {
	var (
		addr         = flag.String("addr", "127.0.0.1:8080", "listen address")
		cacheEntries = flag.Int("cache-entries", serve.DefaultCacheEntries, "result cache size (negative disables caching)")
		maxSolves    = flag.Int("max-solves", 0, "concurrent experiment bound before shedding with 429 (0 = NumCPU)")
		retryAfter   = flag.Duration("retry-after", serve.DefaultRetryAfter, "Retry-After hint on shed responses")
		drainTimeout = flag.Duration("drain-timeout", 10*time.Second, "graceful shutdown deadline for in-flight requests")
	)
	cli := core.RegisterCLIFlags(flag.CommandLine)
	flag.Parse()
	if err := cli.Start(); err != nil {
		cli.Fatal(err)
	}
	defer cli.Stop()

	srv := serve.New(serve.Config{
		CacheEntries: *cacheEntries,
		MaxSolves:    *maxSolves,
		RetryAfter:   *retryAfter,
		Obs:          cli.Obs(),
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		cli.Fatal(err)
	}
	hs := newHTTPServer(srv)
	log.Printf("stackd: serving %d experiments on http://%s", len(core.Experiments()), ln.Addr())

	ctx, stop := cli.Context(context.Background(), 0)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	select {
	case err := <-errc:
		cli.Fatal(err)
	case <-ctx.Done():
	}
	stop()

	// Drain: stop accepting, let in-flight experiments finish, bounded
	// by -drain-timeout.
	sdCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := hs.Shutdown(sdCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "stackd: drain:", err)
	}
	log.Printf("stackd: drained")
}
