package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"sync"
	"time"

	"valleymap/internal/service"
)

// node is one valleyd service running inside the benchmark process,
// served over a loopback listener like the real daemon.
type node struct {
	name   string
	url    string
	svc    *service.Service
	srv    *http.Server
	served chan struct{}
}

// quietLogger keeps the daemon's info-level request and sweep logs off
// the benchmark's output; warnings and errors still reach stderr.
var quietLogger = slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelWarn}))

// startNode builds a service from cfg and serves it on 127.0.0.1. With
// a tracer, the handler is wrapped so every request's server-side
// interval is recorded.
func startNode(name string, cfg service.Config, tr *tracer) (*node, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listening for %s: %w", name, err)
	}
	if cfg.Logger == nil {
		cfg.Logger = quietLogger
	}
	n := &node{name: name, url: "http://" + ln.Addr().String(), svc: service.New(cfg), served: make(chan struct{})}
	var h http.Handler = n.svc.Handler()
	if tr != nil {
		h = tr.wrap(name, h)
	}
	n.srv = &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	go func() {
		defer close(n.served)
		if err := n.srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(os.Stderr, "valleybench: %s stopped serving: %v\n", name, err)
		}
	}()
	return n, nil
}

// close stops the listener, waits for in-flight requests and the serve
// goroutine, then closes the service (draining its pool and spill
// writer).
func (n *node) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := n.srv.Shutdown(ctx); err != nil {
		n.srv.Close() //nolint:errcheck // forced close after a failed graceful one
	}
	<-n.served
	n.svc.Close()
}

// nodes is the set of daemons one workload runs; nodes[0] receives the
// client load (the coordinator in a cluster).
type nodes []*node

func (ns nodes) close() {
	var wg sync.WaitGroup
	for _, n := range ns {
		wg.Add(1)
		go func(n *node) {
			defer wg.Done()
			n.close()
		}(n)
	}
	wg.Wait()
}

// newHTTPClient returns the benchmark's only HTTP client: connections
// per host are capped at conns, so client goroutines and open
// connections both stay within the load budget.
func newHTTPClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		MaxIdleConns:        conns,
		DisableCompression:  true,
		IdleConnTimeout:     30 * time.Second,
		DialContext:         (&net.Dialer{Timeout: 5 * time.Second}).DialContext,
	}}
}

// drain reads and discards the rest of a body so its connection can be
// reused.
func drain(r io.Reader) { io.Copy(io.Discard, r) } //nolint:errcheck // best-effort connection reuse
