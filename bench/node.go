package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"time"

	"ecrpq/internal/core"
	"ecrpq/internal/integrity"
	"ecrpq/internal/persist"
	"ecrpq/internal/server"
)

const clients = 2 // closed loop: nproc keep-alive connections, one request in flight on each

// node is one in-process ecrpqd behind a real loopback listener, with the
// plain net/http client that drives it. internal/client is deliberately
// not used: it retries and opens a circuit breaker after timeouts, which
// would hide failures and starve later ops. Here every op is attempted
// exactly once.
type node struct {
	w     *workload
	srv   *server.Server
	hs    *http.Server
	done  chan error // hs.Serve's return
	store *persist.Store
	dir   string // persist temp dir ("" without persist)
	base  string
	hc    *http.Client

	strict bool // set-up is over: the workload's cache assertion applies
}

// boot builds the server with the daemon's flag defaults (logger
// discarded), opens the store when the workload has one, and starts
// serving. scratch is a directory inside the checkout for temp dirs.
func boot(w *workload, scratch string) (*node, error) {
	n := &node{w: w, done: make(chan error, 1)}
	n.srv = server.New(server.Config{
		QueueDepth:       64,
		DefaultTimeout:   30 * time.Second,
		MaxTimeout:       5 * time.Minute,
		CacheBudgetBytes: w.cacheBudget,
		TraceSampleEvery: 1,
		Logger:           log.New(io.Discard, "", 0),
	})
	if w.persist {
		dir, err := os.MkdirTemp(scratch, "store-")
		if err != nil {
			return nil, err
		}
		n.dir = dir
		st, err := persist.Open(dir)
		if err != nil {
			return nil, errors.Join(err, os.RemoveAll(dir))
		}
		n.store = st
		if _, err := n.srv.AttachStore(st); err != nil {
			return nil, errors.Join(err, st.Close(), os.RemoveAll(dir))
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, errors.Join(err, n.closeStore())
	}
	n.base = "http://" + ln.Addr().String()
	n.hs = &http.Server{Handler: n.srv, ReadHeaderTimeout: 10 * time.Second}
	go func() { n.done <- n.hs.Serve(ln) }()
	n.hc = &http.Client{
		Timeout: timeoutMs * time.Millisecond,
		Transport: &http.Transport{
			MaxIdleConns:        clients,
			MaxIdleConnsPerHost: clients,
			MaxConnsPerHost:     clients,
		},
	}
	return n, nil
}

func (n *node) closeStore() error {
	if n.store == nil {
		return nil
	}
	return errors.Join(n.store.Close(), os.RemoveAll(n.dir))
}

// close stops the listener, drains the server with Server.Shutdown, closes
// the store and removes its directory.
func (n *node) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	n.hc.CloseIdleConnections()
	err := n.hs.Shutdown(ctx)
	if serr := <-n.done; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	return errors.Join(err, n.srv.Shutdown(ctx), n.closeStore())
}

// send sends one request and reads the whole response. The latency is
// client-observed: from before the request is written to after the last
// body byte is read.
func (n *node) send(method, path string, body []byte) (status int, resp []byte, lat time.Duration, err error) {
	req, err := http.NewRequest(method, n.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	start := time.Now()
	r, err := n.hc.Do(req)
	if err != nil {
		return 0, nil, time.Since(start), err
	}
	resp, err = io.ReadAll(r.Body)
	lat = time.Since(start)
	if cerr := r.Body.Close(); err == nil {
		err = cerr
	}
	return r.StatusCode, resp, lat, err
}

// register installs a database over HTTP and returns nothing but failure.
func (n *node) register(d *builtDB, text string) (time.Duration, error) {
	status, resp, lat, err := n.send(http.MethodPost, "/v1/dbs/"+d.name, []byte(text))
	if err != nil {
		return lat, err
	}
	if status != http.StatusOK {
		return lat, fmt.Errorf("register %s: status %d: %s", d.name, status, bytes.TrimSpace(resp))
	}
	return lat, nil
}

// queryResp is the part of the /v1/query, /v1/enumerate and /v1/explain
// success bodies the benchmark reads.
type queryResp struct {
	Sat        bool              `json:"sat"`
	Strategy   string            `json:"strategy"`
	Cache      string            `json:"cache"`
	Nodes      map[string]string `json:"nodes"`
	Paths      map[string]string `json:"paths"`
	Answers    [][]string        `json:"answers"`
	Stats      core.Stats        `json:"stats"`
	More       bool              `json:"more"`
	NextCursor string            `json:"next_cursor"`
}

// outcome is what one op produced. err non-nil makes the op a failed op:
// non-2xx, transport error or timeout, or an oracle mismatch.
type outcome struct {
	lat   time.Duration
	bytes int // response body bytes
	resp  queryResp
	rows  int // answer rows received (answers and enumerate ops)
	pages int // HTTP requests the op took (enumerate follows its cursor)
	err   error
}

// do runs one op to completion and checks it against the oracle.
func (n *node) do(o *op) outcome {
	switch o.kind {
	case kindRegister:
		return n.doRegister(o)
	case kindEnumerate:
		return n.doEnumerate(o)
	case kindExplain:
		out := n.call("/v1/explain", o.body)
		if out.err == nil && out.resp.Strategy == "" {
			out.err = errors.New("explain: no strategy in the response")
		}
		return out
	}
	out := n.call("/v1/query", o.body)
	if out.err != nil {
		return out
	}
	out.err = n.checkQuery(o, &out)
	return out
}

// call posts a JSON body and decodes a 200 response.
func (n *node) call(path string, body []byte) outcome {
	status, resp, lat, err := n.send(http.MethodPost, path, body)
	out := outcome{lat: lat, bytes: len(resp), pages: 1, err: err}
	if err != nil {
		return out
	}
	if status != http.StatusOK {
		out.err = fmt.Errorf("%s: status %d: %s", path, status, bytes.TrimSpace(resp))
		return out
	}
	if err := json.Unmarshal(resp, &out.resp); err != nil {
		out.err = fmt.Errorf("%s: decoding response: %w", path, err)
	}
	return out
}

func (n *node) checkQuery(o *op, out *outcome) error {
	r := &out.resp
	if o.kind == kindAnswers {
		out.rows = len(r.Answers)
		return sameRows(r.Answers, o.p.answers)
	}
	if r.Sat != o.p.sat {
		return fmt.Errorf("%s: sat=%v, oracle says %v", o.p, r.Sat, o.p.sat)
	}
	if o.p.strategy != "" && r.Strategy != o.p.strategy {
		return fmt.Errorf("%s: strategy %q, pinned %q", o.p, r.Strategy, o.p.strategy)
	}
	if n.strict && n.w.wantCache != "" && r.Cache != n.w.wantCache {
		return fmt.Errorf("%s: cache=%q, want %q", o.p, r.Cache, n.w.wantCache)
	}
	return nil
}

// doEnumerate fetches up to enumPages pages, following the cursor. The
// pages together must be distinct expected rows, full while more remain.
func (n *node) doEnumerate(o *op) outcome {
	var total outcome
	seen := map[string]bool{}
	body := o.body
	for {
		out := n.call("/v1/enumerate", body)
		total.lat += out.lat
		total.bytes += out.bytes
		total.pages++
		total.resp = out.resp
		if out.err != nil {
			total.err = out.err
			return total
		}
		r := &out.resp
		total.rows += len(r.Answers)
		if err := subsetRows(r.Answers, o.p.answers, seen); err != nil {
			total.err = fmt.Errorf("%s: page %d: %w", o.p, total.pages, err)
			return total
		}
		if r.More && len(r.Answers) != enumLimit {
			total.err = fmt.Errorf("%s: page %d has %d rows but more=true", o.p, total.pages, len(r.Answers))
			return total
		}
		if !r.More {
			if len(seen) != len(o.p.answers) {
				total.err = fmt.Errorf("%s: enumeration ended after %d of %d rows", o.p, len(seen), len(o.p.answers))
			}
			return total
		}
		if total.pages == enumPages {
			return total
		}
		body = marshalBody(queryBody{DB: o.db.name, Query: o.text, Strategy: o.p.strategy,
			Limit: enumLimit, Cursor: r.NextCursor, TimeoutMs: timeoutMs})
	}
}

// doRegister re-registers a database with shuffled edge lines, then reads
// /v1/integrity back: the content digest must be the one the local copy
// of the graph has at the generation the server reports. Only the POST is
// timed.
func (n *node) doRegister(o *op) outcome {
	lat, err := n.register(o.db, string(o.body))
	out := outcome{lat: lat, pages: 1, err: err}
	if err != nil {
		return out
	}
	status, resp, _, err := n.send(http.MethodGet, "/v1/integrity/"+o.db.name, nil)
	if err != nil || status != http.StatusOK {
		out.err = fmt.Errorf("integrity %s: status %d: %v", o.db.name, status, err)
		return out
	}
	var info struct {
		Gen         uint64 `json:"gen"`
		Digest      string `json:"digest"`
		Quarantined bool   `json:"quarantined"`
	}
	if err := json.Unmarshal(resp, &info); err != nil {
		out.err = fmt.Errorf("integrity %s: %w", o.db.name, err)
		return out
	}
	if want := integrity.Compute(o.db.db, info.Gen).String(); info.Digest != want || info.Quarantined {
		out.err = fmt.Errorf("integrity %s: digest %s (quarantined=%v) at generation %d, local copy has %s",
			o.db.name, info.Digest, info.Quarantined, info.Gen, want)
	}
	return out
}
