package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"runtime"
	"sync"
	"syscall"
	"time"

	"geomob/internal/census"
	"geomob/internal/cluster"
	"geomob/internal/core"
	"geomob/internal/index"
	"geomob/internal/live"
	"geomob/internal/mobility"
	"geomob/internal/ring"
	"geomob/internal/svcache"
	"geomob/internal/tweet"
	"geomob/internal/tweetdb"
	"geomob/internal/wal"
)

// The per-layer numbers come from replaying a fixed prefix of a
// workload's generated inputs, in this process, through the layers'
// public functions composed the way cmd/mobserve composes them. The
// program under test is not changed and not traced; spans inside
// mobserve are a later issue.

// Replay sizes: the prefix of each loop, and shorter versions of the
// end-to-end run's probes so every layer sees calls on every workload.
const (
	replayDashboard     = 1000
	replaySteps         = 100
	replayProbeRequests = 300
	replayProbeSteps    = 30
)

// op is one replayed request: an ingest body or a query.
type op struct {
	body *body
	q    *query
}

// replayOps lists what the replay times, after an untimed preload of the
// history on every workload but bulk_load (whose loop is that load).
func (r *run) replayOps() (preload []body, ops []op, err error) {
	c := r.c
	history := make([]op, len(r.history))
	for i := range r.history {
		history[i] = op{body: &r.history[i]}
	}
	dash := func(n int) []op {
		d := newDashboard(c, r.historyHours, r.seed)
		out := make([]op, n)
		for i := range out {
			q := d.next().query
			out[i] = op{q: &q}
		}
		return out
	}
	steps := func(n int) ([]op, error) {
		var out []op
		for h := r.historyHours; n > 0 && h < c.hours(); h++ {
			tw := c.span(h, h+1)
			if len(tw) == 0 {
				continue
			}
			data, err := binaryBody(tw)
			if err != nil {
				return nil, err
			}
			out = append(out, op{body: &body{data: data, tweets: len(tw)}})
			for _, q := range edgePanel(c, h+1) {
				out = append(out, op{q: &q})
			}
			n--
		}
		return out, nil
	}
	switch r.sp.loop {
	case loopBulk:
		s, err := steps(replayProbeSteps)
		return nil, append(append(history, dash(replayProbeRequests)...), s...), err
	case loopDashboard:
		s, err := steps(replayProbeSteps)
		return r.history, append(dash(replayDashboard), s...), err
	default:
		s, err := steps(replaySteps)
		return r.history, append(s, dash(replayProbeRequests)...), err
	}
}

// engine is one in-process composition of the layers.
// ingest and query return the wall time of the composed call alone,
// without the standalone repeats a shadowed engine makes after it.
type engine interface {
	ingest(tr *tracer, b body) (time.Duration, error)
	query(tr *tracer, q query) (time.Duration, error)
	// setRepeat turns the standalone repeats on (where the engine was
	// built with shadows to take them) or off.
	setRepeat(on bool)
	close()
}

// decodeFrames reads a binary body frame by frame under parent, handing
// each batch to add. It returns every batch concatenated, for the
// standalone repeats.
func decodeFrames(tr *tracer, parent int, data []byte, keep bool, add func(*tweet.Batch) error) (*tweet.Batch, error) {
	rd := tweet.NewBatchReader(bytes.NewReader(data), 0)
	whole, b := &tweet.Batch{}, &tweet.Batch{}
	for {
		s := tr.begin("tweet.frame_decode", parent, false)
		err := rd.Read(b)
		tr.end(s, "")
		if errors.Is(err, io.EOF) {
			return whole, nil
		}
		if err != nil {
			return nil, err
		}
		if err := add(b); err != nil {
			return nil, err
		}
		if keep {
			whole.AppendBatch(b)
		}
	}
}

// liveEngine is `mobserve -live`: a store, the bucket ring, the
// ingestor in front of both and the snapshot cache in front of queries.
// The shadow store and ring take the standalone repeats, so that a
// repeat appends the same columns to a store and a ring in the same
// state the original found.
type liveEngine struct {
	dir         string
	store       *tweetdb.Store
	agg         *live.Aggregator
	ing         *live.Ingestor
	cache       *svcache.Cache
	shadowStore *tweetdb.Store
	shadowAgg   *live.Aggregator
	msm         *mobility.MultiScaleMapper
	metro       *index.Resolver

	// repeat is off during the untimed preload: both repeated appends
	// only ever touch the new body's buckets and a new segment, so the
	// history the shadows then lack is not on their path.
	repeat bool

	residualRecords int64
	modelAssemble   time.Duration
}

// newLiveEngine builds the composition under dir, with or without the
// shadows that take the standalone repeats.
func newLiveEngine(dir string, shadows bool) (*liveEngine, error) {
	e := &liveEngine{dir: dir, cache: svcache.New(0)}
	var err error
	if e.store, err = tweetdb.Open(filepath.Join(dir, "db")); err != nil {
		return nil, err
	}
	if e.agg, err = live.NewAggregator(live.Options{BucketWidth: time.Hour}); err != nil {
		return nil, err
	}
	if e.ing, err = live.NewIngestor(e.store, e.agg, 0); err != nil {
		return nil, err
	}
	if !shadows {
		return e, nil
	}
	if e.shadowStore, err = tweetdb.Open(filepath.Join(dir, "shadow-db")); err != nil {
		return nil, err
	}
	if e.shadowAgg, err = live.NewAggregator(live.Options{BucketWidth: time.Hour}); err != nil {
		return nil, err
	}
	// The ring's own mappers are private; these are built the same way
	// (live.NewShape): one per scale at its default radius plus the
	// 0.5 km metropolitan variant.
	gaz := census.Australia()
	var mappers []*mobility.AreaMapper
	for _, sc := range census.Scales() {
		rs, err := gaz.Regions(sc)
		if err != nil {
			return nil, err
		}
		m, err := mobility.NewAreaMapper(rs, 0)
		if err != nil {
			return nil, err
		}
		mappers = append(mappers, m)
		if sc == census.ScaleMetropolitan {
			e.metro = m.Resolver()
		}
	}
	rs, err := gaz.Regions(census.ScaleMetropolitan)
	if err != nil {
		return nil, err
	}
	m500, err := mobility.NewAreaMapper(rs, 500)
	if err != nil {
		return nil, err
	}
	e.msm, err = mobility.NewMultiScaleMapper(append(mappers, m500)...)
	return e, err
}

func (e *liveEngine) close()            { removeTemp(e.dir) }
func (e *liveEngine) setRepeat(on bool) { e.repeat = on && e.shadowStore != nil }

// ingest mirrors handleIngest's binary branch: DrainBinary over the
// ingestor, then Flush.
func (e *liveEngine) ingest(tr *tracer, b body) (time.Duration, error) {
	shadows := e.repeat
	t0 := time.Now()
	tr.nextRequest()
	root := tr.begin("ingest", -1, false)
	whole, err := decodeFrames(tr, root, b.data, shadows, func(fb *tweet.Batch) error {
		s := tr.begin("live.ingestor", root, false)
		defer tr.end(s, "")
		return e.ing.IngestBatch(fb)
	})
	if err != nil {
		return 0, err
	}
	flush := tr.begin("live.ingestor", root, false)
	err = e.ing.Flush()
	tr.end(flush, "")
	tr.end(root, "")
	wall := time.Since(t0)
	if err != nil || !shadows {
		return wall, err
	}
	// What Flush did inside, repeated on the same columns: one store
	// append and one ring append of the whole body, the ring append
	// resolving every record at every scale, the metropolitan grid being
	// one of those resolvers.
	s := tr.begin("tweetdb.append", flush, true)
	err = e.shadowStore.AppendBatch(whole)
	tr.end(s, "")
	if err != nil {
		return 0, err
	}
	ringSpan := tr.begin("live.ring_append", flush, true)
	err = e.shadowAgg.IngestBatch(whole)
	tr.end(ringSpan, "")
	if err != nil {
		return 0, err
	}
	n := whole.Len()
	assign := make([]int16, n*e.msm.Len())
	mapSpan := tr.begin("mobility.map_all", ringSpan, true)
	e.msm.MapAllBatch(whole.Lat, whole.Lon, assign, e.msm.Len())
	tr.end(mapSpan, "")
	ids := make([]int64, n)
	s = tr.begin("index.resolve", mapSpan, true)
	e.metro.ResolveBatch(whole.Lat, whole.Lon, ids)
	tr.end(s, "")
	return wall, nil
}

// query mirrors executeCached's live branch: coverage probe, cache
// lookup, and on a miss the ring query. The first query of a ring that
// has built no partial yet is the cold build and is booked as such.
func (e *liveEngine) query(tr *tracer, q query) (time.Duration, error) {
	req := q.request()
	cold := e.agg.Builds() == 0
	t0 := time.Now()
	tr.nextRequest()
	root := tr.begin("query", -1, false)
	s := tr.begin("live.probe", root, false)
	ckey, err := e.agg.CoverageKeyRequest(req)
	tr.end(s, "")
	if err != nil {
		return 0, err
	}
	get := tr.begin("svcache.get_hit", root, false)
	querySpan := -1
	_, hit, err := e.cache.Get(req.Key()+"|b="+ckey, func() (*core.Result, error) {
		name := "live.query"
		if cold {
			name = "live.cold_build"
		}
		querySpan = tr.begin(name, get, false)
		defer tr.end(querySpan, "")
		return e.agg.Query(req)
	})
	if hit {
		tr.end(get, "")
	} else {
		tr.end(get, "svcache.get_miss")
	}
	tr.end(root, "")
	wall := time.Since(t0)
	if err != nil || hit || cold || !e.repeat {
		return wall, err
	}
	// What Query did inside, repeated now that the partials it had to
	// rebuild are warm: the fold (which starts with the span-selection
	// walk, repeated on its own as a dry run) and the assembly. What is
	// left of Query after subtracting them is the rebuild.
	foldSpan := tr.begin("live.fold", querySpan, true)
	sp, err := e.agg.FoldPartial(req)
	tr.end(foldSpan, "")
	if err != nil {
		return 0, err
	}
	s = tr.begin("live.select", foldSpan, true)
	cov, err := e.agg.ExplainCoverage(req)
	tr.end(s, "")
	if err != nil {
		return 0, err
	}
	e.residualRecords += cov.ResidualRecords
	fp, err := cluster.MergePartials(req, []*live.ShardPartial{sp})
	if err != nil {
		return 0, err
	}
	s = tr.begin("core.assemble", querySpan, true)
	_, err = core.AssembleFolded(req, fp)
	tr.end(s, "")
	if tr != nil && q.endpoint == "models" {
		e.modelAssemble += tr.spans[s].dur()
	}
	return wall, err
}

// clusterEngine is a coordinator over two in-process shards at R=2 with
// a WAL spool: the coordinator's routing, spool, lanes, scatter and
// merge without the network.
type clusterEngine struct {
	dir    string
	coord  *cluster.Coordinator
	shards []*cluster.LocalShard
	ring   *ring.Ring

	shadowSpool *wal.Spool
	shadowShard *cluster.LocalShard
	repeat      bool // as in liveEngine
	seq         uint64
	walBytes    int64
	partBytes   int64
}

func newLocalShard(dir string) (*cluster.LocalShard, error) {
	store, err := tweetdb.Open(dir)
	if err != nil {
		return nil, err
	}
	return cluster.NewLocalShard(store, live.Options{BucketWidth: time.Hour})
}

// newClusterEngine builds n shards under dir at the given replication;
// walDir "" keeps the spool in memory.
func newClusterEngine(dir string, n, replication int, useWAL, shadows bool) (*clusterEngine, error) {
	e := &clusterEngine{dir: dir}
	var shards []cluster.Shard
	var names []string
	for i := 0; i < n; i++ {
		sh, err := newLocalShard(filepath.Join(dir, fmt.Sprintf("shard%d", i)))
		if err != nil {
			return nil, err
		}
		e.shards = append(e.shards, sh)
		shards = append(shards, sh)
		names = append(names, fmt.Sprintf("member-%03d", i))
	}
	opts := cluster.CoordinatorOptions{Replication: replication}
	if useWAL {
		opts.WALDir = filepath.Join(dir, "wal")
	}
	var err error
	if e.coord, err = cluster.NewCoordinator(shards, opts); err != nil {
		return nil, err
	}
	if e.ring, err = ring.New(names, replication); err != nil {
		return nil, err
	}
	if !shadows {
		return e, nil
	}
	if e.shadowSpool, err = wal.Open(wal.Options{Dir: filepath.Join(dir, "shadow-wal")}); err != nil {
		return nil, err
	}
	e.shadowShard, err = newLocalShard(filepath.Join(dir, "shadow-shard"))
	return e, err
}

func (e *clusterEngine) setRepeat(on bool) { e.repeat = on && e.shadowSpool != nil }

func (e *clusterEngine) close() {
	_ = e.coord.Close() // stops the lanes; the directories go next
	if e.shadowSpool != nil {
		_ = e.shadowSpool.Close()
	}
	removeTemp(e.dir)
}

// ingest mirrors handleIngest's coordinator branch: DrainBinary over
// AddBatch, then Flush, which returns once both replicas applied it.
func (e *clusterEngine) ingest(tr *tracer, b body) (time.Duration, error) {
	shadows := e.repeat
	t0 := time.Now()
	tr.nextRequest()
	root := tr.begin("ingest", -1, false)
	whole, err := decodeFrames(tr, root, b.data, shadows, func(fb *tweet.Batch) error {
		s := tr.begin("cluster.add_batch", root, false)
		defer tr.end(s, "")
		return e.coord.AddBatch(fb)
	})
	if err != nil {
		return 0, err
	}
	flush := tr.begin("cluster.add_batch", root, false)
	err = e.coord.Flush()
	tr.end(flush, "")
	tr.end(root, "")
	wall := time.Since(t0)
	if err != nil || !shadows {
		return wall, err
	}
	// What AddBatch and Flush did inside, repeated: route every row to
	// its slot and the slot to its replicas, re-frame each slot's rows,
	// spool each frame, deliver the frames to a shard. Both replicas
	// take the same delivery at the same time on their own lanes, so it
	// is subtracted once.
	var parts [ring.Slots]*tweet.Batch
	var masks [ring.Slots]uint64
	s := tr.begin("ring.route", flush, true)
	for i, u := range whole.UserID {
		k := ring.SlotOf(u)
		if parts[k] == nil {
			parts[k] = &tweet.Batch{}
			for _, nd := range e.ring.Replicas(k) {
				masks[k] |= 1 << uint(nd)
			}
		}
		parts[k].Append(whole.Row(i))
	}
	tr.end(s, "")
	var ds []cluster.Delivery
	for k, p := range parts {
		if p == nil {
			continue
		}
		s = tr.begin("tweet.frame_encode", flush, true)
		frame, err := tweet.AppendFrame(nil, p)
		tr.end(s, "")
		if err != nil {
			return 0, err
		}
		s = tr.begin("wal.append", flush, true)
		_, err = e.shadowSpool.Append(k, masks[k], frame)
		tr.end(s, "")
		if err != nil {
			return 0, err
		}
		e.walBytes += int64(len(frame))
		e.seq++
		ds = append(ds, cluster.Delivery{Seq: e.seq, Slot: k, Frame: frame})
	}
	s = tr.begin("cluster.deliver", flush, true)
	err = e.shadowShard.DeliverBatch("bench", ds)
	tr.end(s, "")
	return wall, err
}

// query mirrors executeCached's coordinator branch.
func (e *clusterEngine) query(tr *tracer, q query) (time.Duration, error) {
	req := q.request()
	ctx := context.Background()
	t0 := time.Now()
	tr.nextRequest()
	root := tr.begin("query", -1, false)
	querySpan := tr.begin("cluster.query", root, false)
	_, hit, err := e.coord.QueryCtx(ctx, req)
	tr.end(querySpan, "")
	tr.end(root, "")
	wall := time.Since(t0)
	if err != nil || !e.repeat {
		return wall, err
	}
	// What QueryCtx did inside, repeated: a coverage probe of every
	// serving node over its slots, and on a miss a partial fold on every
	// node, the merge of all slot partials and the assembly. With nothing
	// pending and nobody banned the coordinator serves each slot from its
	// first replica, which is what the ring says here. It asks the nodes
	// at the same time and waits for the slowest, and so does the repeat:
	// one span covers the scatter to all nodes.
	assign := make([][]int, len(e.shards))
	for k := 0; k < ring.Slots; k++ {
		nd := e.ring.Replicas(k)[0]
		assign[nd] = append(assign[nd], k)
	}
	scatter := func(name string, call func(nd int, slots []int) error) error {
		errs := make([]error, len(assign))
		var wg sync.WaitGroup
		s := tr.begin(name, querySpan, true)
		for nd, slots := range assign {
			if len(slots) == 0 {
				continue
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				errs[nd] = call(nd, slots)
			}()
		}
		wg.Wait()
		tr.end(s, "")
		return errors.Join(errs...)
	}
	err = scatter("cluster.coverage", func(nd int, slots []int) error {
		_, err := e.shards[nd].Coverage(ctx, req, slots)
		return err
	})
	if err != nil || hit {
		return wall, err
	}
	perNode := make([][]*live.ShardPartial, len(assign))
	err = scatter("cluster.partials", func(nd int, slots []int) (err error) {
		perNode[nd], err = e.shards[nd].Partials(ctx, req, slots)
		return err
	})
	if err != nil {
		return 0, err
	}
	var all []*live.ShardPartial
	for _, ps := range perNode {
		all = append(all, ps...)
	}
	s := tr.begin("cluster.merge", querySpan, true)
	fp, err := cluster.MergePartials(req, all)
	tr.end(s, "")
	if err != nil {
		return 0, err
	}
	s = tr.begin("cluster.assemble", querySpan, true)
	_, err = core.AssembleFolded(req, fp)
	tr.end(s, "")
	if err != nil {
		return 0, err
	}
	// The wire codec is not on the in-process path at all (a LocalShard
	// hands its partials over as pointers); an HTTPShard would encode on
	// the shard and decode on the coordinator exactly these partials.
	s = tr.begin("cluster.codec_encode", -1, true)
	wire := cluster.EncodePartials(all)
	tr.end(s, "")
	e.partBytes += int64(len(wire))
	s = tr.begin("cluster.codec_decode", -1, true)
	_, err = cluster.DecodePartials(wire)
	tr.end(s, "")
	return wall, err
}

// replay runs preload (never traced) and ops through eng and returns
// the summed wall time of the ops, and of the ingest ops alone.
func replay(eng engine, tr *tracer, preload []body, ops []op) (wall, ingestWall time.Duration, err error) {
	eng.setRepeat(false)
	for _, b := range preload {
		if _, err := eng.ingest(nil, b); err != nil {
			return 0, 0, err
		}
	}
	eng.setRepeat(true)
	// Both twins start their timed ops from a collected heap and a
	// flushed disk, whatever the engine before them left behind (its
	// deleted stores are still being written back when the next begins).
	runtime.GC()
	syscall.Sync()
	for _, o := range ops {
		var d time.Duration
		if o.body != nil {
			d, err = eng.ingest(tr, *o.body)
			ingestWall += d
		} else {
			d, err = eng.query(tr, *o.q)
		}
		if err != nil {
			return 0, 0, err
		}
		wall += d
	}
	return wall, ingestWall, nil
}
