package cluster

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"geomob/internal/core"
	"geomob/internal/live"
	"geomob/internal/obs"
	"geomob/internal/tweet"
	"geomob/internal/wire"
)

// The internal shard API. Fold requests travel as JSON bodies pairing a
// core.Request (times RFC 3339, floats by shortest representation —
// exact on round-trip) with the placement slots the coordinator wants
// this member to serve; partials come back in the binary wire codec.
// Replicated deliveries move whole binary batch frames, never
// re-encoded. Error status codes carry the sentinel semantics across
// the wire so a coordinator behaves identically over LocalShard and
// HTTPShard:
//
//	POST /shard/v1/deliver-batch ?sender=, enveloped frames body
//	POST /shard/v1/partials      {"request":…,"slots":[…]} → binary partial list of one
//	POST /shard/v1/coverage      {"request":…,"slots":[…]} → {"coverage": key}
//	GET  /shard/v1/health        ShardHealth
//	GET  /healthz                liveness (boot-wait probes)
//
//	400 caller's request/frames    413 body too large
//
// Any transport failure or 5xx wraps errUnavailable on the client side
// — the coordinator's signal to fail a query over to another replica
// and to keep a delivery spooled for retry.
const (
	pathDeliverBatch = "/shard/v1/deliver-batch"
	pathPartials     = "/shard/v1/partials"
	pathCoverage     = "/shard/v1/coverage"
	pathHealth       = "/shard/v1/health"
)

// NodeOptions configure a shard node server.
type NodeOptions struct {
	// MaxBodyBytes bounds request bodies; zero means 64 MiB. Oversized
	// requests answer 413 (like the public /v1/ingest).
	MaxBodyBytes int64
}

// DefaultMaxBodyBytes is the request-body bound services apply when the
// operator configures none.
const DefaultMaxBodyBytes int64 = 64 << 20

// Node serves one LocalShard over the internal shard API.
type Node struct {
	shard *LocalShard
	mux   *http.ServeMux
	maxB  int64
}

// NewNode builds the HTTP front of one shard.
func NewNode(shard *LocalShard, opts NodeOptions) *Node {
	n := &Node{shard: shard, maxB: opts.MaxBodyBytes}
	if n.maxB <= 0 {
		n.maxB = DefaultMaxBodyBytes
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST "+pathDeliverBatch, n.handleDeliverBatch)
	mux.HandleFunc("POST "+pathPartials, n.handlePartials)
	mux.HandleFunc("POST "+pathCoverage, n.handleCoverage)
	mux.HandleFunc("GET "+pathHealth, n.handleHealth)
	mux.HandleFunc("GET /healthz", n.handleHealth)
	n.mux = mux
	return n
}

// ServeHTTP implements http.Handler.
func (n *Node) ServeHTTP(w http.ResponseWriter, r *http.Request) { n.mux.ServeHTTP(w, r) }

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}

// IngestStatus maps an ingest or delivery failure onto the HTTP status
// the public /v1/ingest and the shard's deliver-batch endpoint share: the
// caller's malformed records or frames are a 400, size-limit violations
// (request body bound, NDJSON line bound, binary frame bound) a 413,
// everything else a 500. The size checks run first: an oversized input
// also wraps live.ErrBadInput, and 413 is the more precise verdict.
func IngestStatus(err error) int {
	var mbe *http.MaxBytesError
	switch {
	case errors.As(err, &mbe), errors.Is(err, bufio.ErrTooLong), errors.Is(err, tweet.ErrFrameTooLarge):
		return http.StatusRequestEntityTooLarge
	case errors.Is(err, live.ErrBadInput):
		return http.StatusBadRequest
	}
	return http.StatusInternalServerError
}

// appendDeliveries envelopes a drain's frames for the wire: per frame a
// 16-byte little-endian header (seq u64, slot u32, frame length u32)
// followed by the frame bytes, concatenated. The frames themselves are
// the CRC'd binary batch codec, never re-encoded.
func appendDeliveries(dst []byte, ds []Delivery) []byte {
	w := wire.NewWriter(dst)
	for _, d := range ds {
		w.U64(d.Seq)
		w.U32(uint32(d.Slot))
		w.U32(uint32(len(d.Frame)))
		w.Raw(d.Frame)
	}
	return w.Bytes()
}

// decodeDeliveries parses an appendDeliveries envelope.
func decodeDeliveries(p []byte) ([]Delivery, error) {
	var ds []Delivery
	r := wire.NewReader(p)
	for r.Len() > 0 {
		d := Delivery{Seq: r.U64(), Slot: int(int32(r.U32()))}
		d.Frame = r.Take(int(r.U32()))
		if err := r.Err(); err != nil {
			return nil, fmt.Errorf("delivery %d: %w", len(ds), err)
		}
		ds = append(ds, d)
	}
	return ds, nil
}

// handleDeliverBatch applies a lane's drain — replicated frames from one
// sender — in a single durable commit. Delivery is synchronous: a 200
// means every frame is durable (or deduplicated) on this member, which
// is what lets the coordinator ack its spool.
func (n *Node) handleDeliverBatch(w http.ResponseWriter, r *http.Request) {
	sender := r.URL.Query().Get("sender")
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, n.maxB))
	if err != nil {
		http.Error(w, fmt.Sprintf("shard deliver-batch: read body: %v", err), IngestStatus(err))
		return
	}
	ds, err := decodeDeliveries(body)
	if err != nil {
		http.Error(w, fmt.Sprintf("shard deliver-batch: %v", err), http.StatusBadRequest)
		return
	}
	if err := n.shard.DeliverBatch(sender, ds); err != nil {
		http.Error(w, fmt.Sprintf("shard deliver-batch: %v", err), IngestStatus(err))
		return
	}
	writeJSON(w, map[string]any{"applied": true, "frames": len(ds)})
}

// slotRequest is the JSON body of the partials and coverage endpoints.
type slotRequest struct {
	Request core.Request `json:"request"`
	Slots   []int        `json:"slots"`
}

// decodeSlotRequest parses and checks the JSON body shared by the
// partials and coverage endpoints.
func (n *Node) decodeSlotRequest(w http.ResponseWriter, r *http.Request) (slotRequest, bool) {
	body := http.MaxBytesReader(w, r.Body, 1<<20)
	var req slotRequest
	err := json.NewDecoder(body).Decode(&req)
	if err == nil {
		err = validSlots(req.Slots)
	}
	if err != nil {
		http.Error(w, fmt.Sprintf("shard: bad request body: %v", err), http.StatusBadRequest)
		return slotRequest{}, false
	}
	return req, true
}

// traceID echoes the propagated obs.TraceHeader on the response for
// end-to-end correlation and returns it for error messages. A shard node
// retains no traces, so it builds none: its fold books the histogram
// alone.
func traceID(w http.ResponseWriter, r *http.Request) string {
	id := r.Header.Get(obs.TraceHeader)
	if id != "" {
		w.Header().Set(obs.TraceHeader, id)
	}
	return id
}

// traceSuffix tags an error message with the trace it belongs to.
func traceSuffix(id string) string {
	if id == "" {
		return ""
	}
	return " (trace " + id + ")"
}

func (n *Node) handlePartials(w http.ResponseWriter, r *http.Request) {
	tid := traceID(w, r)
	req, ok := n.decodeSlotRequest(w, r)
	if !ok {
		return
	}
	ps, err := n.shard.Partials(r.Context(), req.Request, req.Slots)
	if err != nil {
		http.Error(w, fmt.Sprintf("shard partials: %v%s", err, traceSuffix(tid)), http.StatusBadRequest)
		return
	}
	body := EncodePartials(ps)
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	_, _ = w.Write(body)
}

func (n *Node) handleCoverage(w http.ResponseWriter, r *http.Request) {
	tid := traceID(w, r)
	req, ok := n.decodeSlotRequest(w, r)
	if !ok {
		return
	}
	key, err := n.shard.Coverage(r.Context(), req.Request, req.Slots)
	if err != nil {
		http.Error(w, fmt.Sprintf("shard coverage: %v%s", err, traceSuffix(tid)), http.StatusBadRequest)
		return
	}
	writeJSON(w, map[string]string{"coverage": key})
}

func (n *Node) handleHealth(w http.ResponseWriter, _ *http.Request) {
	h, _ := n.shard.Health()
	writeJSON(w, map[string]any{"status": "ok", "shard": h})
}

// HTTPShard talks to a remote Node. It implements Shard, translating
// the wire statuses back into the errors LocalShard reports — sentinel
// fold errors stay sentinels, transport failures and 5xx wrap
// errUnavailable, and a 4xx delivery rejection wraps errPermanent — so
// the coordinator's failover and retry behaviour is
// transport-independent.
type HTTPShard struct {
	base string
	hc   *http.Client // folds: generous timeout, slow ≠ hung
	dc   *http.Client // deliveries: short timeout so retries engage fast
}

// NewHTTPShard builds a client for the shard node at base (scheme://host
// [:port]); hc nil selects a client with a 120 s overall timeout (fold
// requests over large windows are slow, not hung). Deliveries use a
// separate 30 s client regardless: a hung delivery must fail fast so
// the lane's backoff-and-retry takes over.
func NewHTTPShard(base string, hc *http.Client) *HTTPShard {
	if hc == nil {
		hc = &http.Client{Timeout: 120 * time.Second}
	}
	return &HTTPShard{
		base: strings.TrimRight(base, "/"),
		hc:   hc,
		dc:   &http.Client{Timeout: 30 * time.Second},
	}
}

// ScrapeMetrics implements MetricsScraper: it fetches the member's raw
// /metrics exposition for federation. The delivery client's short
// timeout applies — a federated scrape must fail fast and render the
// member down rather than stall the whole /metrics/cluster response.
func (s *HTTPShard) ScrapeMetrics(ctx context.Context) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := s.dc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("%w: shard %s metrics: %v", errUnavailable, s.base, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, s.statusError("metrics", resp)
	}
	return io.ReadAll(io.LimitReader(resp.Body, 8<<20))
}

// DeliverBatch implements Shard: the drain's frames travel in one
// enveloped POST, committed server-side as a single durable batch. A
// transport failure or 5xx is retriable (errUnavailable — the frames
// stay spooled); any other rejection is permanent (errPermanent — the
// lane drops and counts the frame).
func (s *HTTPShard) DeliverBatch(sender string, ds []Delivery) error {
	q := url.Values{}
	q.Set("sender", sender)
	body := appendDeliveries(nil, ds)
	resp, err := s.dc.Post(s.base+pathDeliverBatch+"?"+q.Encode(), "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("%w: shard %s deliver-batch: %v", errUnavailable, s.base, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		_, _ = io.Copy(io.Discard, resp.Body)
		return nil
	}
	msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4<<10))
	detail := strings.TrimSpace(string(msg))
	if resp.StatusCode >= 500 {
		return fmt.Errorf("%w: shard %s deliver-batch: http %d: %s", errUnavailable, s.base, resp.StatusCode, detail)
	}
	return fmt.Errorf("%w: shard %s deliver-batch: http %d: %s", errPermanent, s.base, resp.StatusCode, detail)
}

// post sends a JSON slot request and returns the successful response.
// The context's trace ID (if any) travels in the obs.TraceHeader header
// so the remote node's logs and errors correlate with the
// coordinator's trace.
func (s *HTTPShard) post(ctx context.Context, path string, req core.Request, slots []int) (*http.Response, error) {
	body, err := json.Marshal(slotRequest{Request: req, Slots: slots})
	if err != nil {
		return nil, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, s.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	if id := obs.TraceID(ctx); id != "" {
		hreq.Header.Set(obs.TraceHeader, id)
	}
	resp, err := s.hc.Do(hreq)
	if err != nil {
		return nil, fmt.Errorf("%w: shard %s %s: %v", errUnavailable, s.base, path, err)
	}
	if resp.StatusCode != http.StatusOK {
		defer resp.Body.Close()
		return nil, s.statusError(path, resp)
	}
	return resp, nil
}

// statusError reconstructs the sentinel for a non-200 response: 5xx as
// errUnavailable (the node is up enough to answer but failing — its
// replicas should serve), anything else as a plain error.
func (s *HTTPShard) statusError(what string, resp *http.Response) error {
	msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4<<10))
	detail := strings.TrimSpace(string(msg))
	if resp.StatusCode >= 500 {
		return fmt.Errorf("%w: shard %s %s: http %d: %s", errUnavailable, s.base, what, resp.StatusCode, detail)
	}
	return fmt.Errorf("cluster: shard %s %s: http %d: %s", s.base, what, resp.StatusCode, detail)
}

// Partials implements Shard.
func (s *HTTPShard) Partials(ctx context.Context, req core.Request, slots []int) ([]*live.ShardPartial, error) {
	resp, err := s.post(ctx, pathPartials, req, slots)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	// One buffer of the declared length (bounded), not one grown by doubling.
	buf := bytes.NewBuffer(make([]byte, 0, min(max(resp.ContentLength, 0), 64<<20)+bytes.MinRead))
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return nil, fmt.Errorf("%w: shard %s partials: %v", errUnavailable, s.base, err)
	}
	return DecodePartials(buf.Bytes())
}

// Coverage implements Shard.
func (s *HTTPShard) Coverage(ctx context.Context, req core.Request, slots []int) (string, error) {
	resp, err := s.post(ctx, pathCoverage, req, slots)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	var out struct {
		Coverage string `json:"coverage"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return "", fmt.Errorf("%w: shard %s coverage: %v", errUnavailable, s.base, err)
	}
	return out.Coverage, nil
}

// Health implements Shard.
func (s *HTTPShard) Health() (ShardHealth, error) {
	resp, err := s.hc.Get(s.base + pathHealth)
	if err != nil {
		return ShardHealth{}, fmt.Errorf("%w: shard %s health: %v", errUnavailable, s.base, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return ShardHealth{}, s.statusError("health", resp)
	}
	var out struct {
		Shard ShardHealth `json:"shard"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return ShardHealth{}, fmt.Errorf("%w: shard %s health: %v", errUnavailable, s.base, err)
	}
	return out.Shard, nil
}
