package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"geomob/internal/tweet"
)

// Loop kinds: what a workload spends its measured seconds on.
const (
	loopBulk      = "bulk"      // fresh server per round, post the whole history
	loopDashboard = "dashboard" // read-only mix over two connections
	loopEdge      = "edge"      // post the next hour, re-ask the panel
)

// spec is one workload. A corpus is named by its tweet count (C250k,
// C650k) and always spans the paper's 212-day window; historyDays of it
// is loaded during set-up and the hours after that arrive one by one at
// the moving edge.
type spec struct {
	name        string
	why         string
	tweets      int
	historyDays int
	cluster     bool
	loop        string
	conns       int // connections of the measured loop
}

var specs = []spec{
	{name: "bulk_load", tweets: 650000, historyDays: 205, loop: loopBulk, conns: 1,
		why: "write only: the historical dump an emergency starts with; decode, store append, area resolve and ring append do all the work, the read path none"},
	{name: "dashboard_warm", tweets: 650000, historyDays: 205, loop: loopDashboard, conns: 2,
		why: "read only: cache probe, span selection, bucket fold, assemble, model fits and JSON encode with no write dirtying anything"},
	{name: "moving_edge", tweets: 650000, historyDays: 120, loop: loopEdge, conns: 1,
		why: "hourly appends beside a panel ending at the new edge: every step pays partial rebuild, rollup rebuild and re-fold on one node"},
	{name: "cluster_r2_edge", tweets: 250000, historyDays: 120, cluster: true, loop: loopEdge, conns: 1,
		why: "the same edge loop through a coordinator over two shards at R=2: ring routing, WAL group commit, lanes, partial codec and scatter/merge carry load"},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// Fixed sizes of the phases every workload runs besides its own loop.
const (
	setupRepeats   = 3    // set-ups per run; setup_s is their median
	probeRequests  = 1200 // dashboard requests where the loop issued none
	probeSteps     = 100  // edge steps where the loop posted none
	verifyRequests = 32   // seeded requests compared with the oracle
	recoverRepeats = 3    // crash-restarts per run; recover_s is their median
	minBulkRounds  = 3
)

// run is one workload execution: the inputs, the servers and every
// sample taken.
type run struct {
	e    *env
	sp   spec
	seed uint64

	c            *corpus
	history      []body // the set-up load, one binary body per week
	historyHours int
	historyCount int // tweets in history

	top      *topology
	edgeHour int // next hour to post
	posted   int // the servers hold c.tweets[:posted]

	setupS, firstS samples
	// loadRate has one sample per body of every load pass: the tweets it
	// carried over the seconds its POST took.
	loadRate   samples
	ndjsonRate float64 // the same, median of the traced run's NDJSON pass
	// loopS holds what the measured loop sampled, probeS what the fixed
	// probes after it did; into points at the one being filled.
	loopS, probeS        traffic
	into                 *traffic
	stale                int
	bytesPerTweet, rssMB float64
	scansAtStart         int64
	recoverS             samples
	loopRounds           int

	// A traced run also keeps, from its end-to-end pass: every process's
	// /metrics before the loop and after the probes, the first replies,
	// and the time its clients spent waiting for the public node.
	traced                      bool
	metricsBefore, metricsAfter []map[string]float64
	replies                     [][]byte
	clientWall                  float64

	attempted, failed atomic.Int64
	failMu            sync.Mutex
	failures          []string
}

// traffic is the samples of one phase of requests, by class.
type traffic struct {
	ack, refresh, fold, hit samples
	gets                    int     // GETs completed
	getWall                 float64 // seconds during which GETs were in flight
}

// measured returns, class by class, the loop's samples where the loop
// produced any and the probe's otherwise: a workload is measured on its
// own traffic, and the probes only fill the classes its loop never
// issues.
func (r *run) measured() traffic {
	t, p := r.loopS, r.probeS
	if len(t.ack) == 0 {
		t.ack, t.refresh = p.ack, p.refresh
	}
	if len(t.fold) == 0 {
		t.fold, t.gets, t.getWall = p.fold, p.gets, p.getWall
	}
	if len(t.hit) == 0 {
		t.hit = p.hit
	}
	return t
}

// fail records one failed operation; the first few are kept verbatim.
func (r *run) fail(err error) {
	r.failed.Add(1)
	r.failMu.Lock()
	if len(r.failures) < 8 {
		r.failures = append(r.failures, err.Error())
	}
	r.failMu.Unlock()
}

// op counts one attempted operation and its failure, if any.
func (r *run) op(err error) bool {
	r.attempted.Add(1)
	if err != nil {
		r.fail(err)
		return false
	}
	return true
}

func (r *run) boot() (*topology, error) {
	if r.sp.cluster {
		return r.e.bootCluster()
	}
	return r.e.bootSingle()
}

// setup generates the inputs and brings a topology to the state the
// loop starts from: history loaded, first full-shape query answered,
// panels warm. It is the whole of what setup_s times.
func (r *run) setup() (*topology, error) {
	t0 := time.Now()
	c, err := genCorpus(r.sp.tweets, r.seed)
	if err != nil {
		return nil, err
	}
	r.c = c
	r.historyHours = r.sp.historyDays * 24
	if r.history, err = c.historyBodies(r.sp.historyDays, binaryBody); err != nil {
		return nil, err
	}
	r.historyCount = c.upTo(r.historyHours)
	top, err := r.loaded(r.boot, r.history, tweet.BatchContentType)
	if err != nil {
		return nil, err
	}
	cn := newConn(top.public.url())
	defer cn.close()
	for _, q := range edgePanel(c, r.historyHours) {
		_, _, _, err := cn.getRetry(q.path())
		r.op(err)
	}
	for _, q := range newDashboard(c, r.historyHours, r.seed).panel {
		_, _, err := cn.get(q.path())
		r.op(err)
	}
	r.setupS.add(time.Since(t0))
	return top, nil
}

// loaded boots a topology and loads it: the bodies are posted one by one
// over one connection, and then the first full-shape query is asked,
// which must report exactly the history. It records each binary body's
// tweets per second of POST time and how long that first query took. On
// a failure the servers' stderr goes into the error and they are gone.
func (r *run) loaded(boot func() (*topology, error), bodies []body, ctype string) (*topology, error) {
	top, err := boot()
	if err != nil {
		return nil, err
	}
	rates, first, err := r.load(top, bodies, ctype)
	if err != nil {
		err = fmt.Errorf("%w\n%s", err, top.stderrAll())
		top.close()
		return nil, err
	}
	if ctype == tweet.BatchContentType {
		r.loadRate = append(r.loadRate, rates...)
		r.firstS.add(first)
	} else {
		r.ndjsonRate = median(rates)
	}
	return top, nil
}

func (r *run) load(top *topology, bodies []body, ctype string) (rates samples, first time.Duration, err error) {
	cn := newConn(top.public.url())
	defer cn.close()
	for _, b := range bodies {
		d, err := cn.ingest(b, ctype)
		if !r.op(err) {
			return nil, 0, fmt.Errorf("load: %w", err)
		}
		rates = append(rates, float64(b.tweets)/d.Seconds())
	}
	if len(top.procs) > 1 {
		// A coordinator acks at its WAL; the first query is timed once
		// both replicas have applied the load, not while they still do.
		if err := waitDrained(top.public); err != nil {
			return nil, 0, err
		}
	}
	n, err := top.storeBytes()
	if err != nil {
		return nil, 0, err
	}
	r.bytesPerTweet = float64(n) / float64(r.historyCount)
	first, _, err = cn.freshStats("/v1/stats", r.historyCount)
	if !r.op(err) {
		return nil, 0, fmt.Errorf("first query: %w", err)
	}
	return rates, first, nil
}

// waitDrained polls a coordinator's /healthz until no shard has spooled
// rows pending.
func waitDrained(coord *proc) error {
	hc := &http.Client{Timeout: 5 * time.Second}
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := hc.Get(coord.url() + "/healthz")
		if err != nil {
			return err
		}
		var h struct {
			Shards []struct {
				Pending int64 `json:"pending"`
			} `json:"shards"`
		}
		err = json.NewDecoder(resp.Body).Decode(&h)
		resp.Body.Close()
		if err != nil {
			return fmt.Errorf("coordinator /healthz: %w", err)
		}
		pending := int64(0)
		for _, s := range h.Shards {
			pending += s.Pending
		}
		if pending == 0 && len(h.Shards) > 0 {
			return nil
		}
		time.Sleep(2 * time.Millisecond)
	}
	return errors.New("coordinator never drained its spool")
}

// bulkLoop boots a fresh single node per round and posts the whole
// history to it until the deadline (at least minBulkRounds rounds).
func (r *run) bulkLoop(deadline time.Time) error {
	for r.loopRounds < minBulkRounds || time.Now().Before(deadline) {
		top, err := r.loaded(r.boot, r.history, tweet.BatchContentType)
		if err != nil {
			return err
		}
		top.close()
		r.loopRounds++
	}
	return nil
}

// dashboardPhase issues the read-only mix over n connections until the
// deadline passes or limit requests were sent (limit 0: no limit).
// Latencies are filed by what the server did, not by what the schedule
// intended: a reply marked cached is a hit, anything else a fold.
func (r *run) dashboardPhase(n int, deadline time.Time, limit int) error {
	// Never more connections than processors: the load generator shares
	// them with the servers, and a third client on a two-core box would
	// measure its own queueing.
	if n > r.e.nproc {
		return fmt.Errorf("%d connections asked for on %d processors", n, r.e.nproc)
	}
	d := newDashboard(r.c, r.historyHours, r.seed)
	var mu sync.Mutex // guards d and the sample slices
	var wg sync.WaitGroup
	issued := 0
	t0 := time.Now()
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(cn *conn) {
			defer wg.Done()
			defer cn.close()
			for {
				mu.Lock()
				if (limit > 0 && issued >= limit) || (limit == 0 && !time.Now().Before(deadline)) {
					mu.Unlock()
					return
				}
				issued++
				s := d.next()
				mu.Unlock()
				reply, lat, err := cn.get(s.path())
				if !r.op(err) {
					continue
				}
				mu.Lock()
				if isCached(reply) {
					r.into.hit.add(lat)
				} else {
					r.into.fold.add(lat)
				}
				r.sample(reply, lat)
				mu.Unlock()
			}
		}(newConn(r.top.public.url()))
	}
	wg.Wait()
	r.into.getWall += time.Since(t0).Seconds()
	r.into.gets += issued
	return nil
}

// edgePhase posts the next hour and re-asks the panel ending at the new
// edge, until the deadline passes or limit steps ran (limit 0: no
// limit). Refresh is the time from the start of the POST to the last
// panel answer, the first of which is verified fresh against the
// harness's own count.
func (r *run) edgePhase(deadline time.Time, limit int) error {
	cn := newConn(r.top.public.url())
	defer cn.close()
	for done := 0; r.edgeHour < r.c.hours(); r.edgeHour++ {
		if (limit > 0 && done >= limit) || (limit == 0 && !time.Now().Before(deadline)) {
			return nil
		}
		tw := r.c.span(r.edgeHour, r.edgeHour+1)
		if len(tw) == 0 {
			continue // a silent hour posts nothing
		}
		data, err := binaryBody(tw)
		if err != nil {
			return err
		}
		t0 := time.Now()
		ackD, err := cn.ingest(body{data: data, tweets: len(tw)}, tweet.BatchContentType)
		if !r.op(err) {
			return fmt.Errorf("edge step at hour %d: %w", r.edgeHour, err)
		}
		r.posted += len(tw)
		r.into.ack.add(ackD)
		r.sample(nil, ackD)
		panel := edgePanel(r.c, r.edgeHour+1)
		week := r.posted - r.c.upTo(r.edgeHour+1-7*24)
		// The panel's queries count as this phase's reads only where the
		// edge phase is the measured loop; as a probe it is there for the
		// ack and the refresh, and the dashboard probe supplies the reads.
		reads := &traffic{}
		if limit == 0 {
			reads = r.into
		}
		g0 := time.Now()
		d, stale, err := cn.freshStats(panel[0].path(), week)
		r.stale += stale
		if r.op(err) {
			reads.fold.add(d)
			r.sample(nil, d)
		}
		for _, q := range panel[1:] {
			reply, d, stale, err := cn.getRetry(q.path())
			r.stale += stale
			if r.op(err) && !isCached(reply) {
				reads.fold.add(d)
			}
			r.sample(reply, d)
		}
		reads.getWall += time.Since(g0).Seconds()
		reads.gets += len(panel)
		r.into.refresh.add(time.Since(t0))
		done++
	}
	if limit > 0 {
		return errors.New("edge phase ran out of corpus hours")
	}
	return nil // a loop that outran the corpus ends early, with all its samples
}

// sample keeps, on a traced run, a reply for the re-encode measurement
// and the client's wait for the server-share one.
func (r *run) sample(reply []byte, wait time.Duration) {
	if !r.traced {
		return
	}
	r.clientWall += wait.Seconds()
	if reply != nil && len(r.replies) < maxSampledReplies {
		r.replies = append(r.replies, reply)
	}
}

// verify compares seeded requests and the final edge panel with the
// in-process oracle over exactly the tweets posted.
func (r *run) verify() error {
	cn := newConn(r.top.public.url())
	defer cn.close()
	posted := r.c.tweets[:r.posted]
	d := newDashboard(r.c, r.historyHours, r.seed^0x766572) // "ver": not the loop's draws
	var qs []query
	for len(qs) < verifyRequests {
		if s := d.next(); s.class != classHit {
			qs = append(qs, s.query)
		}
	}
	qs = append(qs, edgePanel(r.c, r.edgeHour)...)
	replies := make([][]byte, len(qs))
	for i, q := range qs {
		reply, _, _, err := cn.getRetry(q.path())
		if err != nil {
			r.op(err)
			continue
		}
		replies[i] = reply
	}
	// The servers idle while the oracle computes, so it may use every
	// processor.
	var wg sync.WaitGroup
	next := atomic.Int64{}
	for w := 0; w < r.e.nproc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(qs); i = int(next.Add(1)) - 1 {
				if replies[i] != nil {
					r.op(checkAnswer(posted, qs[i], replies[i]))
				}
			}
		}()
	}
	wg.Wait()
	return nil
}

// health reads from /healthz what the servers report about
// themselves: store scans so far, and whether any node's last boot fell
// back to a full rescan of its store.
func (r *run) health() (scans int64, fullRescan bool, err error) {
	resp, err := http.Get(r.top.public.url() + "/healthz")
	if err != nil {
		return 0, false, err
	}
	defer resp.Body.Close()
	type node struct {
		Scans    int64 `json:"scans"`
		Recovery *struct {
			FullRescan bool `json:"full_rescan"`
		} `json:"recovery"`
	}
	var h struct {
		node
		Shards []struct {
			Health node `json:"health"`
		} `json:"shards"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		return 0, false, fmt.Errorf("/healthz: %w", err)
	}
	nodes := []node{h.node}
	if r.sp.cluster {
		nodes = nil
		for _, s := range h.Shards {
			nodes = append(nodes, s.Health)
		}
	}
	for _, n := range nodes {
		scans += n.Scans
		fullRescan = fullRescan || n.Recovery == nil || n.Recovery.FullRescan
	}
	return scans, fullRescan, nil
}

// recoverPhase commits a snapshot on every node that keeps snapshots,
// SIGKILLs the whole topology, boots it again on the same directories
// and times how long until /healthz is 200 and the panel answers byte
// for byte what it answered before the crash.
func (r *run) recoverPhase() error {
	panel := edgePanel(r.c, r.edgeHour)
	for i := 0; i < recoverRepeats; i++ {
		cn := newConn(r.top.public.url())
		for _, p := range r.top.snapshotters {
			resp, err := http.Post(p.url()+"/v1/snapshot", "", nil)
			if err == nil {
				if resp.Body.Close(); resp.StatusCode != http.StatusOK {
					err = fmt.Errorf("POST /v1/snapshot: status %d", resp.StatusCode)
				}
			}
			if !r.op(err) {
				return err
			}
		}
		before := make([][]byte, len(panel))
		for j, q := range panel {
			reply, _, _, err := cn.getRetry(q.path())
			if !r.op(err) {
				return err
			}
			before[j] = stripCached(reply)
		}
		cn.close() // its connection dies with the server

		t0 := time.Now()
		if err := r.top.crashRestart(); err != nil {
			return err
		}
		for j, q := range panel {
			reply, _, stale, err := cn.getRetry(q.path())
			r.stale += stale
			if err == nil && string(stripCached(reply)) != string(before[j]) {
				err = fmt.Errorf("%s: answer after restart differs from the one before the crash", q.path())
			}
			r.op(err)
		}
		r.recoverS.add(time.Since(t0))
		cn.close()
		_, fullRescan, err := r.health()
		if err == nil && fullRescan && len(r.top.snapshotters) > 0 {
			err = errors.New("/healthz: a node recovered by rescanning its whole store, not from its snapshot")
		}
		r.op(err)
	}
	return nil
}

// phase logs to standard error how long the phase that just ended took.
func (r *run) phase(name string, since *time.Time) {
	now := time.Now()
	fmt.Fprintf(os.Stderr, "bench: %s %s: %.2fs\n", r.sp.name, name, now.Sub(*since).Seconds())
	*since = now
}

// execute runs the whole workload: set-ups, the measured loop, the
// probes that give every metric a sample on every workload, the output
// checks and the crash-restarts.
func (r *run) execute(seconds float64) (err error) {
	defer func() {
		if r.top != nil {
			if err != nil {
				err = fmt.Errorf("%w\n%s", err, r.top.stderrAll())
			}
			r.top.close()
		}
	}()
	mark := time.Now()
	for i := 0; i < setupRepeats; i++ {
		if r.top != nil {
			r.top.close()
			r.top = nil
		}
		if r.top, err = r.setup(); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
	}
	r.phase("set-up x3", &mark)
	r.edgeHour, r.posted = r.historyHours, r.historyCount
	if r.scansAtStart, _, err = r.health(); err != nil {
		return err
	}

	if r.traced {
		if r.metricsBefore, err = r.scrapeAll(); err != nil {
			return err
		}
	}
	r.into = &r.loopS
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	switch r.sp.loop {
	case loopBulk:
		err = r.bulkLoop(deadline)
	case loopDashboard:
		err = r.dashboardPhase(r.sp.conns, deadline, 0)
	case loopEdge:
		err = r.edgePhase(deadline, 0)
	}
	if err != nil {
		return fmt.Errorf("loop: %w", err)
	}
	r.phase("loop", &mark)
	r.into = &r.probeS
	if r.sp.loop != loopDashboard {
		if err := r.dashboardPhase(1, time.Time{}, probeRequests); err != nil {
			return fmt.Errorf("dashboard probe: %w", err)
		}
	}
	if r.sp.loop != loopEdge {
		if err := r.edgePhase(time.Time{}, probeSteps); err != nil {
			return fmt.Errorf("edge probe: %w", err)
		}
	}
	r.phase("probes", &mark)
	if r.traced {
		if r.metricsAfter, err = r.scrapeAll(); err != nil {
			return err
		}
	}
	if r.rssMB, err = r.top.rssMB(); err != nil {
		return err
	}
	// Serving must never have gone back to the store: every /v1 answer
	// folds the ring.
	scans, _, err := r.health()
	if err == nil && scans != r.scansAtStart {
		err = fmt.Errorf("/healthz: %d store scans while serving", scans-r.scansAtStart)
	}
	r.op(err)
	if err := r.verify(); err != nil {
		return fmt.Errorf("verify: %w", err)
	}
	r.phase("verify", &mark)
	if err := r.recoverPhase(); err != nil {
		return fmt.Errorf("recover: %w", err)
	}
	r.phase("recover x3", &mark)
	return nil
}

// ndjsonRound boots a fresh single node and posts the history of this
// run as NDJSON bodies; the median body's tweets per second lands in
// ndjsonRate.
func (r *run) ndjsonRound() error {
	bodies, err := r.c.historyBodies(r.sp.historyDays, ndjsonBody)
	if err != nil {
		return err
	}
	top, err := r.loaded(r.e.bootSingle, bodies, "application/x-ndjson")
	if err != nil {
		return err
	}
	top.close()
	return nil
}
