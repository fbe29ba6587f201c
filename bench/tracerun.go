package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"time"

	"geomob/internal/live"
	"geomob/internal/tweet"
	"geomob/internal/tweetdb"
)

// perLayer lists the metrics of a traced run. Times ending in _s are
// self times summed over the replayed prefix unless the name says
// _total_s, which is the inclusive time of that call. See README.md for
// the call each one times and the end-to-end metric it should move.
var perLayer = []metricDef{
	{name: "tweet.frame_decode_s", unit: "s", better: "lower"},
	{name: "tweet.ndjson_decode_s", unit: "s", better: "lower"},
	{name: "tweet.frame_encode_s", unit: "s", better: "lower"},
	{name: "tweetdb.append_s", unit: "s", better: "lower"},
	{name: "tweetdb.scan_s", unit: "s", better: "lower"},
	{name: "tweetdb.bytes_per_tweet", unit: "B/tweet", better: "lower"},
	{name: "tweetdb.segments", unit: "count", better: "lower"},
	{name: "index.resolve_s", unit: "s", better: "lower"},
	{name: "mobility.map_all_s", unit: "s", better: "lower"},
	{name: "live.ring_append_s", unit: "s", better: "lower"},
	{name: "live.ingestor_s", unit: "s", better: "lower"},
	{name: "live.ingestor_total_s", unit: "s", better: "lower"},
	{name: "live.cold_build_s", unit: "s", better: "lower"},
	{name: "live.probe_s", unit: "s", better: "lower"},
	{name: "svcache.get_hit_s", unit: "s", better: "lower"},
	{name: "live.select_s", unit: "s", better: "lower"},
	{name: "live.residual_records", unit: "count", better: "lower"},
	{name: "live.fold_s", unit: "s", better: "lower"},
	{name: "live.edge_rebuild_s", unit: "s", better: "lower"},
	{name: "live.query_total_s", unit: "s", better: "lower"},
	{name: "core.assemble_s", unit: "s", better: "lower"},
	{name: "models.fit_share", unit: "share", better: "lower"},
	{name: "live.snapshot_commit_s", unit: "s", better: "lower"},
	{name: "live.snapshot_bytes_per_tweet", unit: "B/tweet", better: "lower"},
	{name: "live.recover_s", unit: "s", better: "lower"},
	{name: "live.backfill_s", unit: "s", better: "lower"},
	{name: "ring.route_s", unit: "s", better: "lower"},
	{name: "wal.append_s", unit: "s", better: "lower"},
	{name: "wal.bytes_per_tweet", unit: "B/tweet", better: "lower"},
	{name: "cluster.add_batch_s", unit: "s", better: "lower"},
	{name: "cluster.add_batch_total_s", unit: "s", better: "lower"},
	{name: "cluster.add_batch_p1_s", unit: "s", better: "lower"},
	{name: "cluster.deliver_s", unit: "s", better: "lower"},
	{name: "cluster.coverage_s", unit: "s", better: "lower"},
	{name: "cluster.partials_s", unit: "s", better: "lower"},
	{name: "cluster.codec_encode_s", unit: "s", better: "lower"},
	{name: "cluster.codec_decode_s", unit: "s", better: "lower"},
	{name: "cluster.partial_bytes", unit: "B", better: "lower"},
	{name: "cluster.merge_s", unit: "s", better: "lower"},
	{name: "cluster.query_s", unit: "s", better: "lower"},
	{name: "cluster.query_total_s", unit: "s", better: "lower"},
	{name: "live.builds", unit: "count", better: "lower"},
	{name: "svcache.hit_ratio", unit: "share", better: "higher"},
	{name: "svcache.evictions", unit: "count", better: "lower"},
	{name: "wal.fsyncs", unit: "count", better: "lower"},
	{name: "cluster.lane_retries", unit: "count", better: "lower"},
	{name: "cluster.partial_fetches", unit: "count", better: "lower"},
	{name: "cluster.coverage_probes", unit: "count", better: "lower"},
	{name: "cluster.stale_reads", unit: "count", better: "lower"},
	{name: "mobserve.server_share", unit: "share", better: "lower"},
	{name: "mobserve.json_reencode_s", unit: "s", better: "lower"},
	{name: "mobserve.resp_bytes", unit: "B", better: "lower"},
	{name: "mobserve.ndjson_tweets_per_s", unit: "tweets/s", better: "higher"},
	{name: "mobserve.fold_p95_ms", unit: "ms", better: "lower"},
	{name: "mobserve.ingest_ack_p50_ms", unit: "ms", better: "lower"},
	{name: "mobserve.ingest_ack_p95_ms", unit: "ms", better: "lower"},
	{name: "mobserve.refresh_p95_ms", unit: "ms", better: "lower"},
	{name: "bench.trace_overhead_share", unit: "share", better: "lower"},
	{name: "bench.unattributed_share", unit: "share", better: "lower"},
}

// maxSampledReplies bounds the replies a traced run keeps for the JSON
// re-encode measurement.
const maxSampledReplies = 2000

// scrapeAll reads /metrics of every process of the topology.
func (r *run) scrapeAll() ([]map[string]float64, error) {
	out := make([]map[string]float64, len(r.top.procs))
	for i, p := range r.top.procs {
		m, err := scrape(p)
		if err != nil {
			return nil, err
		}
		out[i] = m
	}
	return out, nil
}

// counterValues turns the /metrics deltas of the end-to-end pass — the
// program's existing series, scraped before the loop and after the
// probes — into the count metrics. public is the delta of the node the
// clients talked to, all the sum over every process.
func (r *run) counterValues(into map[string]reading) {
	all := map[string]float64{}
	var public map[string]float64
	for i := range r.metricsAfter {
		d := metricsDelta(r.metricsBefore[i], r.metricsAfter[i])
		for k, v := range d {
			all[k] += v
		}
		if r.top.procs[i] == r.top.public {
			public = d
		}
	}
	count := func(series string) reading { return reading{all[series], 0} }
	into["live.builds"] = count("geomob_ring_builds_total")
	into["svcache.evictions"] = count("geomob_cache_evictions_total")
	into["wal.fsyncs"] = count("geomob_wal_fsyncs_total")
	into["cluster.lane_retries"] = count("geomob_lane_retries_total")
	into["cluster.partial_fetches"] = count("geomob_cluster_partial_fetches_total")
	into["cluster.coverage_probes"] = count("geomob_cluster_coverage_probes_total")
	into["cluster.stale_reads"] = reading{float64(r.stale), 0}
	// The cache that answers clients is the public node's.
	hits, misses := public["geomob_cache_hits_total"], public["geomob_cache_misses_total"]
	into["svcache.hit_ratio"] = reading{hits / (hits + misses), int(hits + misses)}
	// What the server's own request histogram saw of the time the
	// clients waited; the rest is HTTP, the kernel and the client.
	into["mobserve.server_share"] = reading{public["geomob_query_duration_seconds_sum"] / r.clientWall,
		int(public["geomob_query_duration_seconds_count"])}
}

// reencodeValues measures what writing the sampled replies costs: each
// is decoded (untimed) and encoded again the way mobserve's writeJSON
// does. An approximation of the server's encode, stated as such: the
// server encodes typed values, this encodes the generic ones decoding
// gave back.
func (r *run) reencodeValues(into map[string]reading) error {
	var total time.Duration
	var size int
	for _, reply := range r.replies {
		var v any
		if err := json.Unmarshal(reply, &v); err != nil {
			return err
		}
		var buf bytes.Buffer
		t0 := time.Now()
		enc := json.NewEncoder(&buf)
		enc.SetIndent("", "  ")
		err := enc.Encode(v)
		total += time.Since(t0)
		if err != nil {
			return err
		}
		size += len(reply)
	}
	n := len(r.replies)
	into["mobserve.json_reencode_s"] = reading{total.Seconds() / float64(n), n}
	into["mobserve.resp_bytes"] = reading{float64(size) / float64(n), n}
	return nil
}

// oneOff times one call outside any request, as a standalone root span.
func oneOff(tr *tracer, name string, fn func() error) error {
	s := tr.begin(name, -1, true)
	err := fn()
	tr.end(s, "")
	return err
}

// liveOneOffs times the layer calls no request makes: a full store
// scan, a snapshot commit, the two boot paths, and the NDJSON decoder
// over the same tweets the replay ingested as frames.
func (r *run) liveOneOffs(tr *tracer, e *liveEngine, ops []op, into map[string]reading) error {
	stored := float64(e.store.Count())
	err := oneOff(tr, "tweetdb.scan", func() error {
		it := e.store.Scan(tweetdb.Query{})
		defer it.Close()
		for {
			if _, ok := it.NextBlock(); !ok {
				return it.Err()
			}
		}
	})
	if err != nil {
		return err
	}
	var segBytes int64
	segs := e.store.Segments()
	for _, m := range segs {
		segBytes += m.Bytes
	}
	into["tweetdb.bytes_per_tweet"] = reading{float64(segBytes) / stored, 0}
	into["tweetdb.segments"] = reading{float64(len(segs)), 0}

	snaps, err := live.OpenSnapshotStore(filepath.Join(e.dir, "snap"))
	if err != nil {
		return err
	}
	var st live.SnapshotStats
	if err := oneOff(tr, "live.snapshot_commit", func() (err error) {
		st, err = e.ing.Snapshot(snaps)
		return err
	}); err != nil {
		return err
	}
	into["live.snapshot_bytes_per_tweet"] = reading{float64(st.Bytes) / stored, 0}
	for name, boot := range map[string]func(*live.Aggregator) error{
		"live.recover": func(a *live.Aggregator) error {
			rec, err := live.Recover(a, e.store, snaps, live.RecoverOpts{})
			if err == nil && rec.FullRescan {
				err = errors.New("live.Recover fell back to a full rescan right after a snapshot commit")
			}
			return err
		},
		"live.backfill": func(a *live.Aggregator) error {
			_, err := live.Backfill(a, e.store)
			return err
		},
	} {
		a, err := live.NewAggregator(live.Options{BucketWidth: time.Hour})
		if err != nil {
			return err
		}
		if err := oneOff(tr, name, func() error { return boot(a) }); err != nil {
			return err
		}
		if a.Ingested() != e.agg.Ingested() {
			return fmt.Errorf("%s restored %d records, the ring holds %d", name, a.Ingested(), e.agg.Ingested())
		}
	}
	for _, o := range ops {
		if o.body == nil {
			continue
		}
		var rows []tweet.Tweet
		if _, err := decodeFrames(nil, -1, o.body.data, false, func(b *tweet.Batch) error {
			rows = append(rows, b.Rows()...)
			return nil
		}); err != nil {
			return err
		}
		text, err := ndjsonBody(rows)
		if err != nil {
			return err
		}
		if err := oneOff(tr, "tweet.ndjson_decode", func() error {
			rd := tweet.NewNDJSONReader(bytes.NewReader(text))
			for {
				if _, err := rd.Read(); errors.Is(err, io.EOF) {
					return nil
				} else if err != nil {
					return err
				}
			}
		}); err != nil {
			return err
		}
	}
	return nil
}

// layerValues replays the workload's prefix through the in-process
// compositions, traced and untraced, and reduces the spans to the
// per-layer metrics. It returns the spans for trace.json.
func (r *run) layerValues(into map[string]reading) (liveSpans, clusterSpans []span, err error) {
	preload, ops, err := r.replayOps()
	if err != nil {
		return nil, nil, err
	}
	// The first full-shape query after the load is the cold build.
	cold := op{q: &query{endpoint: "stats"}}
	if r.sp.loop == loopBulk {
		n := len(r.history)
		ops = append(append(append([]op(nil), ops[:n]...), cold), ops[n:]...)
	} else {
		ops = append([]op{cold}, ops...)
	}
	tmp, err := r.e.tempDir("layers")
	if err != nil {
		return nil, nil, err
	}
	defer removeTemp(tmp)
	mark := time.Now()

	// The -live composition runs twice on fresh state, the same code
	// with the same standalone repeats, once recording spans and once
	// with a nil tracer: the difference in the ops' wall time is what
	// recording costs. The cluster composition shares the tracer code
	// and runs once. Only one engine lives at a time; a ring of C50k is
	// several hundred MB.
	var le *liveEngine
	liveTr := newTracer()
	var wallTraced, wallPlain time.Duration
	for _, tr := range []*tracer{liveTr, nil} {
		eng, err := newLiveEngine(filepath.Join(tmp, fmt.Sprintf("live-%v", tr != nil)), true)
		if err != nil {
			return nil, nil, err
		}
		wall, _, err := replay(eng, tr, preload, ops)
		if err == nil && tr != nil {
			wallTraced, le = wall, eng
			err = r.liveOneOffs(tr, eng, ops, into)
		} else {
			wallPlain = wall
		}
		eng.close()
		if err != nil {
			return nil, nil, fmt.Errorf("live replay: %w", err)
		}
		r.phase(fmt.Sprintf("live replay traced=%v", tr != nil), &mark)
	}
	ce, err := newClusterEngine(filepath.Join(tmp, "cluster"), 2, 2, true, true)
	if err != nil {
		return nil, nil, err
	}
	clusterTr := newTracer()
	_, _, err = replay(ce, clusterTr, preload, ops)
	ce.close()
	if err != nil {
		return nil, nil, fmt.Errorf("cluster replay: %w", err)
	}
	r.phase("cluster replay", &mark)
	// One shard, R=1, no WAL: the coordinator hop with nothing behind it
	// but the ring append live.ingestor_total_s also pays.
	p1, err := newClusterEngine(filepath.Join(tmp, "p1"), 1, 1, false, false)
	if err != nil {
		return nil, nil, err
	}
	p1Tr := newTracer()
	_, _, err = replay(p1, p1Tr, preload, ingestOnly(ops))
	p1.close()
	if err != nil {
		return nil, nil, fmt.Errorf("p1 replay: %w", err)
	}
	r.phase("p1 replay", &mark)

	lt, ct := selfTimes(liveTr.spans), selfTimes(clusterTr.spans)
	self := func(m map[string]layerTime, name string) reading {
		return reading{m[name].Self.Seconds(), m[name].Calls}
	}
	total := func(m map[string]layerTime, name string) reading {
		return reading{m[name].Inclusive.Seconds(), m[name].Calls}
	}
	for metric, name := range map[string]string{
		"tweet.frame_decode_s": "tweet.frame_decode", "tweet.ndjson_decode_s": "tweet.ndjson_decode",
		"tweetdb.append_s": "tweetdb.append", "tweetdb.scan_s": "tweetdb.scan",
		"index.resolve_s": "index.resolve", "mobility.map_all_s": "mobility.map_all",
		"live.ring_append_s": "live.ring_append", "live.ingestor_s": "live.ingestor",
		"live.cold_build_s": "live.cold_build", "live.probe_s": "live.probe",
		"svcache.get_hit_s": "svcache.get_hit", "live.select_s": "live.select", "live.fold_s": "live.fold",
		"live.edge_rebuild_s": "live.query", "core.assemble_s": "core.assemble",
		"live.snapshot_commit_s": "live.snapshot_commit", "live.recover_s": "live.recover",
		"live.backfill_s": "live.backfill",
	} {
		into[metric] = self(lt, name)
	}
	for metric, name := range map[string]string{
		"ring.route_s": "ring.route", "tweet.frame_encode_s": "tweet.frame_encode", "wal.append_s": "wal.append",
		"cluster.add_batch_s": "cluster.add_batch", "cluster.deliver_s": "cluster.deliver",
		"cluster.coverage_s": "cluster.coverage", "cluster.partials_s": "cluster.partials",
		"cluster.codec_encode_s": "cluster.codec_encode", "cluster.codec_decode_s": "cluster.codec_decode",
		"cluster.merge_s": "cluster.merge", "cluster.query_s": "cluster.query",
	} {
		into[metric] = self(ct, name)
	}
	into["live.ingestor_total_s"] = total(lt, "live.ingestor")
	into["live.query_total_s"] = total(lt, "live.query")
	into["cluster.add_batch_total_s"] = total(ct, "cluster.add_batch")
	into["cluster.query_total_s"] = total(ct, "cluster.query")
	into["cluster.add_batch_p1_s"] = total(selfTimes(p1Tr.spans), "cluster.add_batch")
	into["live.residual_records"] = reading{float64(le.residualRecords), 0}
	into["models.fit_share"] = reading{le.modelAssemble.Seconds() / lt["core.assemble"].Inclusive.Seconds(), 0}
	into["cluster.partial_bytes"] = reading{float64(ce.partBytes), 0}
	ingested := 0
	for _, o := range ops {
		if o.body != nil {
			ingested += o.body.tweets
		}
	}
	into["wal.bytes_per_tweet"] = reading{float64(ce.walBytes) / float64(ingested), 0}

	la, lc := attribution(liveTr.spans)
	ca, cc := attribution(clusterTr.spans)
	attributed, composed := la+ca, lc+cc
	into["bench.unattributed_share"] = reading{1 - attributed.Seconds()/composed.Seconds(), 0}
	into["bench.trace_overhead_share"] = reading{(wallTraced - wallPlain).Seconds() / wallPlain.Seconds(), 0}
	return liveTr.spans, clusterTr.spans, nil
}

func ingestOnly(ops []op) []op {
	var out []op
	for _, o := range ops {
		if o.body != nil {
			out = append(out, o)
		}
	}
	return out
}

// perLayerValues is the traced run's second half: after the end-to-end
// pass it loads the history once more as NDJSON, replays the prefix
// through the layers in this process, and writes trace.json.
func (r *run) perLayerValues() (map[string]reading, error) {
	values := map[string]reading{}
	e2e := r.endToEndValues()
	for _, d := range ungated {
		values["mobserve."+d.name] = e2e[d.name]
	}
	r.counterValues(values)
	if err := r.reencodeValues(values); err != nil {
		return nil, err
	}
	mark := time.Now()
	if err := r.ndjsonRound(); err != nil {
		return nil, fmt.Errorf("NDJSON load: %w", err)
	}
	values["mobserve.ndjson_tweets_per_s"] = reading{r.ndjsonRate, 0}
	r.phase("NDJSON load", &mark)
	liveSpans, clusterSpans, err := r.layerValues(values)
	if err != nil {
		return nil, err
	}
	path := filepath.Join(r.e.buildDir, "trace-"+r.sp.name+".json")
	err = writeTrace(path, traceFile{Workload: r.sp.name, Seed: r.seed, Machine: r.e.machine(),
		Live:    engineTrace{Layers: selfTimes(liveSpans), Spans: liveSpans},
		Cluster: engineTrace{Layers: selfTimes(clusterSpans), Spans: clusterSpans}})
	if err != nil {
		return nil, err
	}
	fmt.Printf("trace written to %s\n", path)
	return values, nil
}
