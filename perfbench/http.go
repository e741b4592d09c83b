package main

// Loopback HTTP plumbing shared by the match and ingest workloads.

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"time"
)

// loopback serves a handler on an ephemeral 127.0.0.1 port.
type loopback struct {
	url  string
	srv  *http.Server
	done chan struct{}
}

func listen(h http.Handler) (*loopback, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	lb := &loopback{url: "http://" + ln.Addr().String(), srv: &http.Server{Handler: h}, done: make(chan struct{})}
	go func() {
		defer close(lb.done)
		_ = lb.srv.Serve(ln)
	}()
	return lb, nil
}

// close shuts the listener down and waits for the serving goroutine.
func (lb *loopback) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = lb.srv.Shutdown(ctx)
	<-lb.done
}

// client is one closed-loop HTTP client of the benchmark.
type client struct{ hc *http.Client }

func newClient() *client {
	return &client{hc: &http.Client{
		Timeout:   time.Minute,
		Transport: &http.Transport{MaxIdleConnsPerHost: 8, DisableCompression: true},
	}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// reply is one finished request: status, body, and the round trip from
// sending the request to reading the last body byte.
type reply struct {
	status int
	body   []byte
	rtt    time.Duration
}

// do sends one request; op, when non-zero, is sent in opHeader.
func (c *client) do(method, url, contentType string, body []byte, op int64) (reply, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return reply{}, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	if op != 0 {
		req.Header.Set(opHeader, strconv.FormatInt(op, 10))
	}
	start := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return reply{}, err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	rtt := time.Since(start)
	if err != nil {
		return reply{}, err
	}
	return reply{status: resp.StatusCode, body: b, rtt: rtt}, nil
}

// expect is do with a required status.
func (c *client) expect(status int, method, url, contentType string, body []byte) ([]byte, error) {
	r, err := c.do(method, url, contentType, body, 0)
	if err != nil {
		return nil, err
	}
	if r.status != status {
		return nil, fmt.Errorf("%s %s: status %d, want %d: %.200s", method, url, r.status, status, r.body)
	}
	return r.body, nil
}
