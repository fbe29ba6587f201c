package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"
)

// staleLimit is how long a client keeps re-asking for an answer that
// does not yet reflect an acknowledged write (or a 503 from a cluster
// whose replicas are still applying it) before it counts as a failure.
const staleLimit = 5 * time.Second

// conn is one closed-loop client: a single keep-alive connection on
// which the next request is sent only after the previous reply was read.
type conn struct {
	hc   *http.Client
	base string
}

// newConn opens one single-connection client against base.
func newConn(base string) *conn {
	return &conn{base: base, hc: &http.Client{
		Timeout:   60 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
	}}
}

func (c *conn) close() { c.hc.CloseIdleConnections() }

// do sends one request and reads the whole reply, timing from just
// before the send to just after the last byte.
func (c *conn) do(method, path, ctype string, data []byte) (status int, reply []byte, d time.Duration, err error) {
	var rd io.Reader
	if data != nil {
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, nil, 0, err
	}
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	t0 := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, time.Since(t0), err
	}
	reply, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, reply, time.Since(t0), err
}

// get answers a /v1 query; any status but 200 is an error.
func (c *conn) get(path string) ([]byte, time.Duration, error) {
	status, reply, d, err := c.do(http.MethodGet, path, "", nil)
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("GET %s: status %d: %.200s", path, status, reply)
	}
	return reply, d, err
}

// ingest posts one body and checks the server acknowledged every tweet
// of it (200 single node, 202 cluster).
func (c *conn) ingest(b body, ctype string) (time.Duration, error) {
	status, reply, d, err := c.do(http.MethodPost, "/v1/ingest", ctype, b.data)
	if err != nil {
		return d, err
	}
	if status != http.StatusOK && status != http.StatusAccepted {
		return d, fmt.Errorf("POST /v1/ingest: status %d: %.200s", status, reply)
	}
	var ack struct {
		Ingested int `json:"ingested"`
	}
	if err := json.Unmarshal(reply, &ack); err != nil {
		return d, fmt.Errorf("POST /v1/ingest: reply %.200q: %v", reply, err)
	}
	if ack.Ingested != b.tweets {
		return d, fmt.Errorf("POST /v1/ingest: acknowledged %d of %d tweets", ack.Ingested, b.tweets)
	}
	return d, nil
}

// isCached reports whether a /v1 reply was served from the snapshot
// cache. The body is mobserve's indented JSON, so the flag is matched
// as text: decoding every reply would spend the client's share of the
// processors on parsing flow matrices.
func isCached(reply []byte) bool { return bytes.Contains(reply, []byte(`"cached": true`)) }

// stripCached removes the cache-disposition line, the one field of a
// /v1 reply that says how the answer was served rather than what it is.
func stripCached(reply []byte) []byte {
	out := bytes.Replace(reply, []byte(`"cached": true`), []byte(`"cached": _`), 1)
	return bytes.Replace(out, []byte(`"cached": false`), []byte(`"cached": _`), 1)
}

// freshStats asks a /v1/stats query until its `tweets` equals want — the
// harness's own count for that window — or staleLimit passes. It returns
// the time of the last, fresh request and how many stale replies (wrong
// count, or 503 while replicas catch up) came before it.
func (c *conn) freshStats(path string, want int) (d time.Duration, stale int, err error) {
	deadline := time.Now().Add(staleLimit)
	for {
		status, reply, d, err := c.do(http.MethodGet, path, "", nil)
		if err != nil {
			return d, stale, err
		}
		if status == http.StatusOK {
			var st struct {
				Tweets int `json:"tweets"`
			}
			if err := json.Unmarshal(reply, &st); err != nil {
				return d, stale, fmt.Errorf("GET %s: %v", path, err)
			}
			if st.Tweets == want {
				return d, stale, nil
			}
			if st.Tweets > want {
				return d, stale, fmt.Errorf("GET %s: %d tweets, only %d were posted", path, st.Tweets, want)
			}
		} else if status != http.StatusServiceUnavailable {
			return d, stale, fmt.Errorf("GET %s: status %d: %.200s", path, status, reply)
		}
		stale++
		if time.Now().After(deadline) {
			return d, stale, fmt.Errorf("GET %s: still stale after %v (status %d)", path, staleLimit, status)
		}
		time.Sleep(time.Millisecond)
	}
}

// getRetry is get that waits out 503s the same way: a cluster answers
// 503 rather than serve a replica that has not applied an acked write.
func (c *conn) getRetry(path string) (reply []byte, d time.Duration, stale int, err error) {
	deadline := time.Now().Add(staleLimit)
	for {
		status, reply, d, err := c.do(http.MethodGet, path, "", nil)
		switch {
		case err != nil:
			return nil, d, stale, err
		case status == http.StatusOK:
			return reply, d, stale, nil
		case status != http.StatusServiceUnavailable || time.Now().After(deadline):
			return nil, d, stale, fmt.Errorf("GET %s: status %d: %.200s", path, status, reply)
		}
		stale++
		time.Sleep(time.Millisecond)
	}
}
