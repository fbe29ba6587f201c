package geomob

// Benchmark harness: one benchmark per table and figure of the paper (see
// DESIGN.md §3), timing the regeneration of each artefact from a shared
// pre-generated corpus, plus ablation benches for the design choices the
// experiments exercise. Run with:
//
//	go test -bench=. -benchmem
//
// The corpus size is deliberately moderate (benchUsers users) so the whole
// suite completes in minutes; scale-up happens via cmd/mobrepro -users.

import (
	"bytes"
	"cmp"
	"context"
	"fmt"
	"path/filepath"
	"slices"
	"sync"
	"testing"
	"time"

	"geomob/internal/census"
	"geomob/internal/cluster"
	"geomob/internal/epidemic"
	"geomob/internal/experiments"
	"geomob/internal/geo"
	"geomob/internal/index"
	"geomob/internal/live"
	"geomob/internal/mobility"
	"geomob/internal/models"
	"geomob/internal/obs"
	"geomob/internal/randx"
	"geomob/internal/stats"
	"geomob/internal/synth"
	"geomob/internal/tweet"
	"geomob/internal/tweetdb"
	"geomob/internal/wal"
)

const benchUsers = 10000

var (
	benchOnce sync.Once
	benchEnv  *experiments.Env
	benchErr  error
)

// env lazily builds the shared corpus + study used by all table/figure
// benches; the build cost itself is measured by BenchmarkFullStudy.
func env(b *testing.B) *experiments.Env {
	b.Helper()
	benchOnce.Do(func() {
		benchEnv, benchErr = experiments.NewEnv(context.Background(), benchUsers, 42, 43, "", 0)
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchEnv
}

// BenchmarkFullStudy measures the end-to-end pipeline: corpus generation
// plus the complete multi-scale study (everything behind Tables I-II and
// Figures 2-4).
func BenchmarkFullStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tweets, err := GenerateCorpus(DefaultCorpusConfig(2000, uint64(i+1), 2))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := NewStudy(SliceSource(tweets)).Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTableI regenerates the dataset statistics table.
func BenchmarkTableI(b *testing.B) {
	e := env(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.TableI(e); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure1 regenerates the tweet density map.
func BenchmarkFigure1(b *testing.B) {
	e := env(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure1(e); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure2a regenerates the tweets-per-user distribution.
func BenchmarkFigure2a(b *testing.B) {
	e := env(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := experiments.Figure2a(e); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure2b regenerates the waiting-time distribution.
func BenchmarkFigure2b(b *testing.B) {
	e := env(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure2b(e); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure3a regenerates the population-vs-census comparison.
func BenchmarkFigure3a(b *testing.B) {
	e := env(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure3a(e); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure3b regenerates the metro radius-sensitivity comparison.
func BenchmarkFigure3b(b *testing.B) {
	e := env(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure3b(e); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure4 regenerates the per-model scatter data at all scales.
func BenchmarkFigure4(b *testing.B) {
	e := env(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure4(e); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTableII regenerates the model-performance table.
func BenchmarkTableII(b *testing.B) {
	e := env(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.TableII(e); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationRadius sweeps the metropolitan search radius (A1).
func BenchmarkAblationRadius(b *testing.B) {
	e := env(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationRadius(e, []float64{500, 2000}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationSample reruns the study on a 30% user subsample (A2).
func BenchmarkAblationSample(b *testing.B) {
	e := env(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationSampleSize(e, []float64{0.3}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationGamma regenerates a corpus per planted exponent and
// refits (A3).
func BenchmarkAblationGamma(b *testing.B) {
	e := env(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationGamma(e, []float64{2.0}, 2000); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEpidemic runs the SIR metapopulation extension (E1).
func BenchmarkEpidemic(b *testing.B) {
	e := env(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := experiments.Epidemic(e, epidemic.DefaultParams(), "Sydney"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEpidemicStochastic runs the stochastic ensemble extension (E1b).
func BenchmarkEpidemicStochastic(b *testing.B) {
	e := env(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.EpidemicStochastic(e, 20, 3); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigureDisplacement regenerates the displacement distribution.
func BenchmarkFigureDisplacement(b *testing.B) {
	e := env(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.FigureDisplacement(e); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTableIIExtended fits all four models at all scales.
func BenchmarkTableIIExtended(b *testing.B) {
	e := env(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.TableIIExtended(e); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBootstrapCI measures the pooled-correlation bootstrap.
func BenchmarkBootstrapCI(b *testing.B) {
	e := env(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.PooledCorrelationCI(e, 0.95, 500); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Sharded pipeline benchmarks ----------------------------------------

// benchStudyUsers sizes the corpus for the worker-scaling benchmark: 50k
// users is roughly a tenth of the paper's collection and large enough for
// the parallel section to dominate setup costs.
const benchStudyUsers = 50000

var (
	studyCorpusOnce sync.Once
	studyCorpus     []Tweet
	studyCorpusErr  error
)

// studyBenchCorpus lazily generates the shared 50k-user corpus.
func studyBenchCorpus(b *testing.B) []Tweet {
	b.Helper()
	studyCorpusOnce.Do(func() {
		studyCorpus, studyCorpusErr = GenerateCorpus(DefaultCorpusConfig(benchStudyUsers, 42, 43))
	})
	if studyCorpusErr != nil {
		b.Fatal(studyCorpusErr)
	}
	return studyCorpus
}

// BenchmarkStudyRun measures the complete multi-scale study over a shared
// pre-generated 50k-user corpus at several worker counts. The results are
// identical across worker counts by construction (see DESIGN.md §4), so
// this benchmark isolates pure pipeline throughput.
func BenchmarkStudyRun(b *testing.B) {
	tweets := studyBenchCorpus(b)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := NewStudyWithOptions(SliceSource(tweets), StudyOptions{Workers: workers}).Run(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(tweets)), "tweets/op")
		})
	}
}

// --- Component micro-benchmarks -----------------------------------------

// BenchmarkSynthGenerate measures raw corpus generation throughput.
func BenchmarkSynthGenerate(b *testing.B) {
	gen, err := synth.NewGenerator(synth.DefaultConfig(2000, 1, 2))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var total int
	for i := 0; i < b.N; i++ {
		n, err := gen.Generate(func(tweet.Tweet) error { return nil })
		if err != nil {
			b.Fatal(err)
		}
		total = n
	}
	b.ReportMetric(float64(total), "tweets/op")
}

// BenchmarkHaversine measures the geodesic kernel.
func BenchmarkHaversine(b *testing.B) {
	p1 := geo.Point{Lat: -33.8688, Lon: 151.2093}
	p2 := geo.Point{Lat: -37.8136, Lon: 144.9631}
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += geo.Haversine(p1, p2)
	}
	_ = sink
}

// benchQueryPoints builds the shared query mix for the area-assignment
// benchmarks: uniform points over the study region, as
// index.BenchmarkKDTreeNearest uses, so the benches are directly comparable.
func benchQueryPoints() []geo.Point {
	rng := randx.New(3, 4)
	queries := make([]geo.Point, 1024)
	for i := range queries {
		queries[i] = geo.Point{Lat: -44 + rng.Float64()*30, Lon: 114 + rng.Float64()*40}
	}
	return queries
}

// BenchmarkAreaAssign measures the grid-resolved area assignment — the
// per-tweet hot path of the study pipeline — on the same entry set and
// query mix as index.BenchmarkKDTreeNearest, so the speedup of the precomputed
// resolver over the tree walk reads directly off the two numbers.
func BenchmarkAreaAssign(b *testing.B) {
	rs, err := census.Australia().Regions(census.ScaleNational)
	if err != nil {
		b.Fatal(err)
	}
	entries := make([]index.Entry, rs.Len())
	for i, a := range rs.Areas {
		entries[i] = index.Entry{ID: int64(i), P: a.Center}
	}
	resolver, err := index.NewResolver(entries, census.ScaleNational.SearchRadius())
	if err != nil {
		b.Fatal(err)
	}
	queries := benchQueryPoints()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resolver.Resolve(queries[i%len(queries)])
	}
}

// BenchmarkMultiScaleMap measures the full per-tweet assignment work of a
// complete study pass: one coordinate decoded into all four assignment
// slots (three scales plus the metro 0.5 km variant) in a single call.
func BenchmarkMultiScaleMap(b *testing.B) {
	gaz := census.Australia()
	var mappers []*mobility.AreaMapper
	for _, scale := range census.Scales() {
		rs, err := gaz.Regions(scale)
		if err != nil {
			b.Fatal(err)
		}
		m, err := mobility.NewAreaMapper(rs, 0)
		if err != nil {
			b.Fatal(err)
		}
		mappers = append(mappers, m)
	}
	metroRS, err := gaz.Regions(census.ScaleMetropolitan)
	if err != nil {
		b.Fatal(err)
	}
	metro500, err := mobility.NewAreaMapper(metroRS, 500)
	if err != nil {
		b.Fatal(err)
	}
	msm, err := mobility.NewMultiScaleMapper(append(mappers, metro500)...)
	if err != nil {
		b.Fatal(err)
	}
	queries := benchQueryPoints()
	out := make([]int, msm.Len())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		msm.MapAll(queries[i%len(queries)], out)
	}
}

// benchIngestEnv builds one fresh ingest stack (store + ring + ingestor)
// — the per-iteration setup of the ingest wire benchmarks.
func benchIngestEnv(b *testing.B) *live.Ingestor {
	b.Helper()
	store, err := tweetdb.Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	agg, err := live.NewAggregator(live.Options{BucketWidth: time.Hour})
	if err != nil {
		b.Fatal(err)
	}
	ing, err := live.NewIngestor(store, agg, 1<<14)
	if err != nil {
		b.Fatal(err)
	}
	return ing
}

// BenchmarkIngest measures the NDJSON ingest path end to end — the cost
// of absorbing a POST /v1/ingest NDJSON body through live.Ingestor: one
// JSON decode per record into column batches of up to 8 192 rows, then
// durable append into the store plus routing through the multi-scale
// assignment hot path into the bucket ring (DESIGN.md §7). tweets/sec is
// the headline text ingest throughput the live service sustains.
func BenchmarkIngest(b *testing.B) {
	tweets := makeBenchTweets(50000)
	var body bytes.Buffer
	w := tweet.NewNDJSONWriter(&body)
	for _, t := range tweets {
		if err := w.Write(t); err != nil {
			b.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		ing := benchIngestEnv(b)
		b.StartTimer()
		n, err := ing.Ingest(context.Background(), tweet.NewNDJSONReader(bytes.NewReader(body.Bytes())).ReadBatch)
		if err != nil {
			b.Fatal(err)
		}
		if n != len(tweets) {
			b.Fatalf("ingested %d", n)
		}
	}
	b.ReportMetric(float64(len(tweets)), "tweets/op")
	b.ReportMetric(float64(len(tweets))*float64(b.N)/b.Elapsed().Seconds(), "tweets/sec")
}

// BenchmarkIngestBatch measures the same end-to-end write path fed the
// binary batch wire format instead (Content-Type
// application/x-geomob-batch): frames decode straight into columns and
// flow batch → ingestor columns → v2 segment without per-record structs
// or JSON. The tweets/sec and allocs/op deltas against BenchmarkIngest
// are the headline wins of the columnar hot path; mobbench -compare
// gates them (>= 3x tweets/sec at <= 0.1x allocs/op).
func BenchmarkIngestBatch(b *testing.B) {
	tweets := makeBenchTweets(50000)
	const frame = 8192 // matches the mobgen -format binary frame size
	var body bytes.Buffer
	w := tweet.NewBatchWriter(&body)
	all := tweet.BatchOf(tweets)
	for off := 0; off < all.Len(); off += frame {
		end := min(off+frame, all.Len())
		if err := w.Write(all.Slice(off, end)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		ing := benchIngestEnv(b)
		b.StartTimer()
		n, err := ing.Ingest(context.Background(), tweet.NewBatchReader(bytes.NewReader(body.Bytes()), 0).Read)
		if err != nil {
			b.Fatal(err)
		}
		if n != len(tweets) {
			b.Fatalf("ingested %d", n)
		}
	}
	b.ReportMetric(float64(len(tweets)), "tweets/op")
	b.ReportMetric(float64(len(tweets))*float64(b.N)/b.Elapsed().Seconds(), "tweets/sec")
}

// BenchmarkBackfill measures rebuilding the live bucket ring from a
// durable store at boot: a zero-copy block scan feeding the assignment
// hot path in columnar chunks (DESIGN.md §7).
func BenchmarkBackfill(b *testing.B) {
	dir := b.TempDir()
	store, err := tweetdb.Open(dir)
	if err != nil {
		b.Fatal(err)
	}
	if err := store.Append(makeBenchTweets(50000)); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		agg, err := live.NewAggregator(live.Options{BucketWidth: time.Hour})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		n, err := live.Backfill(agg, store)
		if err != nil {
			b.Fatal(err)
		}
		if n != 50000 {
			b.Fatalf("backfilled %d", n)
		}
	}
	b.ReportMetric(50000, "tweets/op")
	b.ReportMetric(50000*float64(b.N)/b.Elapsed().Seconds(), "tweets/sec")
}

// BenchmarkClusterIngest measures the in-process multi-partition ingest
// path end to end (DESIGN.md §8): 8 192-row batches (BenchmarkIngestBatch's
// frame size) through AddBatch, the coordinator routing every record by
// user hash into per-partition stores + bucket rings, with per-partition
// lanes delivering concurrently — on a multi-core box the expensive
// per-record work (grid assignment, trigonometry, cell hashing)
// parallelises across partitions, which partitions=1 cannot. tweets/sec
// is the headline cluster ingest throughput.
func BenchmarkClusterIngest(b *testing.B) {
	tweets := makeBenchTweets(50000)
	all := tweet.BatchOf(tweets)
	const frame = 8192
	for _, parts := range []int{1, 4} {
		b.Run(fmt.Sprintf("partitions=%d", parts), func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				shards := make([]cluster.Shard, parts)
				for k := range shards {
					store, err := tweetdb.Open(b.TempDir())
					if err != nil {
						b.Fatal(err)
					}
					shard, err := cluster.NewLocalShard(store, live.Options{BucketWidth: time.Hour})
					if err != nil {
						b.Fatal(err)
					}
					shards[k] = shard
				}
				coord, err := cluster.NewCoordinator(shards, cluster.CoordinatorOptions{})
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				for off := 0; off < all.Len(); off += frame {
					if err := coord.AddBatch(all.Slice(off, min(off+frame, all.Len()))); err != nil {
						b.Fatal(err)
					}
				}
				if err := coord.Flush(); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				if err := coord.Close(); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
			b.ReportMetric(float64(len(tweets)), "tweets/op")
			b.ReportMetric(float64(len(tweets))*float64(b.N)/b.Elapsed().Seconds(), "tweets/sec")
		})
	}
}

// BenchmarkWALAppend measures the durable ingest acknowledgement point
// (DESIGN.md §10): appending one slot frame to the segmented
// write-ahead spool, CRC and group-commit fsync included. ns/op here is
// the floor a spooled /v1/ingest ack can ever reach.
func BenchmarkWALAppend(b *testing.B) {
	const frameRows = 512
	tweets := makeBenchTweets(frameRows)
	batch := tweet.BatchOf(tweets)
	frame, err := tweet.AppendFrame(nil, batch)
	if err != nil {
		b.Fatal(err)
	}
	sp, err := wal.Open(wal.Options{Dir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	defer sp.Close()
	b.ReportAllocs()
	b.SetBytes(int64(len(frame)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sp.Append(i%16, 0b11, frame); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(frameRows, "tweets/op")
	b.ReportMetric(frameRows*float64(b.N)/b.Elapsed().Seconds(), "tweets/sec")
}

// BenchmarkIngestReplicated measures what replication costs the cluster
// ingest path: a 3-member coordinator taking the corpus in 8 192-row
// AddBatch slices, routing it into per-slot frames and delivering each
// frame to r replicas through the per-member lanes. r=1 is the
// unreplicated baseline; r=2 buys single-failure tolerance for (ideally)
// one extra delivery, not a rerouted pipeline.
func BenchmarkIngestReplicated(b *testing.B) {
	tweets := makeBenchTweets(50000)
	all := tweet.BatchOf(tweets)
	const frame = 8192
	for _, r := range []int{1, 2} {
		b.Run(fmt.Sprintf("r=%d", r), func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				shards := make([]cluster.Shard, 3)
				for k := range shards {
					shard, err := cluster.NewLocalShard(nil, live.Options{BucketWidth: time.Hour})
					if err != nil {
						b.Fatal(err)
					}
					shards[k] = shard
				}
				coord, err := cluster.NewCoordinator(shards, cluster.CoordinatorOptions{Replication: r})
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				for off := 0; off < all.Len(); off += frame {
					if err := coord.AddBatch(all.Slice(off, min(off+frame, all.Len()))); err != nil {
						b.Fatal(err)
					}
				}
				if err := coord.Flush(); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				if err := coord.Close(); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
			b.ReportMetric(float64(len(tweets)), "tweets/op")
			b.ReportMetric(float64(len(tweets))*float64(b.N)/b.Elapsed().Seconds(), "tweets/sec")
		})
	}
}

// BenchmarkLiveQuery measures a warm windowed fold: answering a request
// from materialised bucket partials, no storage or spatial work.
func BenchmarkLiveQuery(b *testing.B) {
	tweets := makeBenchTweets(50000)
	agg, err := live.NewAggregator(live.Options{BucketWidth: time.Hour})
	if err != nil {
		b.Fatal(err)
	}
	if err := agg.IngestBatch(tweet.BatchOf(tweets)); err != nil {
		b.Fatal(err)
	}
	req := StudyRequest{Analyses: []Analysis{AnalysisFlows}, Scales: []Scale{ScaleNational}}
	if _, err := agg.Query(req); err != nil { // materialise the partials
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := agg.Query(req); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(tweets)), "tweets/op")
}

const edgeHour = int64(time.Hour / time.Millisecond)

// edgeFeed returns the 50k-user corpus as a feed in timestamp order, the
// hour bucket 120 days into it (where the moving-edge benchmarks stop
// warming and start stepping), and upTo, which advances an index to the
// first tweet at or after bucket hr.
func edgeFeed(b *testing.B) (feed []Tweet, warm int64, upTo func(from int, hr int64) int) {
	feed = slices.Clone(studyBenchCorpus(b))
	slices.SortFunc(feed, func(x, y Tweet) int { return cmp.Compare(x.TS, y.TS) })
	warm = feed[0].TS/edgeHour + 120*24
	upTo = func(from int, hr int64) int {
		for from < len(feed) && feed[from].TS/edgeHour < hr {
			from++
		}
		return from
	}
	return feed, warm, upTo
}

// edgeHoursPerOp is how many hourly appends one BenchmarkClusterEdgeIngest
// op makes: a day, so that one op lasts tens of milliseconds and a single
// iteration (the bench-smoke gate's -benchtime 1x) is not one fsync's
// luck.
const edgeHoursPerOp = 24

// BenchmarkClusterEdgeIngest measures the acknowledgement of hourly
// appends through the replicated topology (DESIGN.md §10): with 120 days
// warm, each op routes the next edgeHoursPerOp hours' tweets, one
// request per hour, through a WAL-backed R=2 coordinator over two
// store-backed shards and waits for each Flush — the spool commit plus
// both replicas' durable store commits. fsyncs/request and
// deliveries/request are the request-group contract: one spool fsync and
// one DeliverBatch per shard per request, however many of the 16 slots
// the hour touches.
func BenchmarkClusterEdgeIngest(b *testing.B) {
	feed, warm, upTo := edgeFeed(b)
	var coord *cluster.Coordinator
	var next int
	var edge int64
	reset := func() {
		if coord != nil {
			if err := coord.Close(); err != nil {
				b.Fatal(err)
			}
		}
		shards := make([]cluster.Shard, 2)
		for k := range shards {
			store, err := tweetdb.Open(b.TempDir())
			if err != nil {
				b.Fatal(err)
			}
			if shards[k], err = cluster.NewLocalShard(store, live.Options{BucketWidth: time.Hour}); err != nil {
				b.Fatal(err)
			}
		}
		var err error
		coord, err = cluster.NewCoordinator(shards, cluster.CoordinatorOptions{Replication: 2, WALDir: b.TempDir()})
		if err != nil {
			b.Fatal(err)
		}
		next, edge = upTo(0, warm), warm
		if err := coord.AddBatch(tweet.BatchOf(feed[:next])); err != nil {
			b.Fatal(err)
		}
		if err := coord.Flush(); err != nil {
			b.Fatal(err)
		}
	}
	reset()
	counts := func() (fsyncs, deliveries float64) {
		snap := obs.Def.Snapshot()
		return snap.Value("geomob_wal_fsyncs_total"), snap.Value("geomob_shard_deliver_seconds_count")
	}
	// Counted over the timed sections only: a reset's warm-up is not a
	// request.
	var fsyncs, deliveries float64
	f0, d0 := counts()
	timedUntilHere := func() {
		f, d := counts()
		fsyncs, deliveries = fsyncs+f-f0, deliveries+d-d0
	}
	tweets := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for h := 0; h < edgeHoursPerOp; h++ {
			if next == len(feed) { // feed exhausted: start over on a fresh cluster
				b.StopTimer()
				timedUntilHere()
				reset()
				f0, d0 = counts()
				b.StartTimer()
			}
			end := upTo(next, edge+1)
			if err := coord.AddBatch(tweet.BatchOf(feed[next:end])); err != nil {
				b.Fatal(err)
			}
			if err := coord.Flush(); err != nil {
				b.Fatal(err)
			}
			tweets += end - next
			next, edge = end, edge+1
		}
	}
	b.StopTimer()
	timedUntilHere()
	requests := float64(b.N * edgeHoursPerOp)
	b.ReportMetric(fsyncs/requests, "fsyncs/request")
	b.ReportMetric(deliveries/requests, "deliveries/request")
	b.ReportMetric(float64(tweets)/float64(b.N), "tweets/op")
	if err := coord.Close(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkLiveEdgeRefresh measures one dashboard refresh at the moving
// edge (DESIGN.md §11): with 120 days of the 50k-user feed warm in an
// hourly ring, ingest the next hour and re-ask the four-query panel
// ending at it — a week of stats, a day of state population, a week of
// metro flows and the unbounded national flows. An append must cost one
// bucket partial and a re-fold over closed rollup groups, never a
// re-merge of the open day or month.
func BenchmarkLiveEdgeRefresh(b *testing.B) {
	feed, warm, upTo := edgeFeed(b)
	const hour = edgeHour
	panel := func(agg *live.Aggregator, edge int64) {
		at := func(hr int64) time.Time { return time.UnixMilli(hr * hour).UTC() }
		for _, req := range []StudyRequest{
			{Analyses: []Analysis{AnalysisStats}, From: at(edge - 7*24), To: at(edge)},
			{Analyses: []Analysis{AnalysisPopulation}, Scales: []Scale{ScaleState}, From: at(edge - 24), To: at(edge)},
			{Analyses: []Analysis{AnalysisFlows}, Scales: []Scale{ScaleMetropolitan}, From: at(edge - 7*24), To: at(edge)},
			{Analyses: []Analysis{AnalysisFlows}, Scales: []Scale{ScaleNational}},
		} {
			if _, err := agg.Query(req); err != nil {
				b.Fatal(err)
			}
		}
	}
	var agg *live.Aggregator
	var next int
	var edge int64
	reset := func() {
		var err error
		if agg, err = live.NewAggregator(live.Options{BucketWidth: time.Hour}); err != nil {
			b.Fatal(err)
		}
		next, edge = upTo(0, warm), warm
		if err := agg.IngestBatch(tweet.BatchOf(feed[:next])); err != nil {
			b.Fatal(err)
		}
		panel(agg, edge)
	}
	reset()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if next == len(feed) { // feed exhausted: start over on a fresh ring
			b.StopTimer()
			reset()
			b.StartTimer()
		}
		end := upTo(next, edge+1)
		if err := agg.IngestBatch(tweet.BatchOf(feed[next:end])); err != nil {
			b.Fatal(err)
		}
		next, edge = end, edge+1
		panel(agg, edge)
	}
}

// BenchmarkLiveColdQuery measures the first full-shape query after a
// restart (DESIGN.md §11). Untimed, as a restart does it: 120 warm days of
// the 50k-user feed are ingested into a store and snapshotted once, and
// per op a fresh ring is recovered from that snapshot. The timed part is
// the one Query that materialises every bucket partial and rollup group
// the window takes.
func BenchmarkLiveColdQuery(b *testing.B) {
	feed, warm, upTo := edgeFeed(b)
	dir := b.TempDir()
	store, err := tweetdb.Open(filepath.Join(dir, "store"))
	if err != nil {
		b.Fatal(err)
	}
	snaps, err := live.OpenSnapshotStore(filepath.Join(dir, "snap"))
	if err != nil {
		b.Fatal(err)
	}
	sh, err := live.NewShape(live.Options{BucketWidth: time.Hour})
	if err != nil {
		b.Fatal(err)
	}
	ing, err := live.NewIngestor(store, sh.NewAggregator(), 1<<14)
	if err != nil {
		b.Fatal(err)
	}
	if err := ing.IngestBatch(tweet.BatchOf(feed[:upTo(0, warm)])); err != nil {
		b.Fatal(err)
	}
	if err := ing.Flush(); err != nil {
		b.Fatal(err)
	}
	if _, err := ing.Snapshot(snaps); err != nil {
		b.Fatal(err)
	}
	var restored int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		agg := sh.NewAggregator()
		st, err := live.Recover(agg, store, snaps, live.RecoverOpts{})
		if err != nil {
			b.Fatal(err)
		}
		if st.FullRescan || st.TailRecords != 0 {
			b.Fatalf("recovery replayed the store: %+v", st)
		}
		restored = st.Restored
		b.StartTimer()
		if _, err := agg.Query(StudyRequest{}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(restored), "buckets/op")
}

// BenchmarkShardResident measures what a cluster shard keeps on the heap
// and what filling it costs (DESIGN.md §11): 120 warm days of the
// 50k-user feed go into the shard's one ring (untimed), as a shard
// holding every placement slot keeps them, and the timed part is one
// full-shape fold — the cold build of its sparse hour partials and their
// rollups. B/record is the ring's ResidentBytes over the records it
// holds, partials the hour partials materialised.
func BenchmarkShardResident(b *testing.B) {
	feed, warm, upTo := edgeFeed(b)
	feed = feed[:upTo(0, warm)]
	var resident, partials int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		shard, err := cluster.NewLocalShard(nil, live.Options{BucketWidth: time.Hour})
		if err != nil {
			b.Fatal(err)
		}
		agg := shard.Ring()
		if err := agg.IngestBatch(tweet.BatchOf(feed)); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := agg.FoldPartial(StudyRequest{}); err != nil {
			b.Fatal(err)
		}
		resident, partials = agg.ResidentBytes().Total(), agg.Builds()
	}
	b.ReportMetric(float64(resident)/float64(len(feed)), "B/record")
	b.ReportMetric(float64(partials), "partials")
}

// BenchmarkStoreScan measures full-store scan throughput including
// checksum verification.
func BenchmarkStoreScan(b *testing.B) {
	dir := b.TempDir()
	store, err := tweetdb.Open(dir)
	if err != nil {
		b.Fatal(err)
	}
	if err := store.Append(makeBenchTweets(50000)); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		it := store.Scan(tweetdb.Query{})
		n := 0
		for {
			if _, ok := it.Next(); !ok {
				break
			}
			n++
		}
		if err := it.Err(); err != nil {
			b.Fatal(err)
		}
		if n != 50000 {
			b.Fatalf("scanned %d", n)
		}
	}
	b.SetBytes(50000)
}

// BenchmarkStorePrunedScan measures a time-windowed scan where predicate
// pushdown skips most segments.
func BenchmarkStorePrunedScan(b *testing.B) {
	dir := b.TempDir()
	store, err := tweetdb.Open(dir)
	if err != nil {
		b.Fatal(err)
	}
	// Ten disjoint time batches → ten prunable segments.
	for batch := 0; batch < 10; batch++ {
		tweets := make([]tweet.Tweet, 5000)
		base := int64(1378000000000) + int64(batch)*1_000_000_000
		for i := range tweets {
			tweets[i] = tweet.Tweet{
				ID: int64(batch*5000 + i), UserID: int64(i % 100),
				TS: base + int64(i), Lat: -33.9, Lon: 151.2,
			}
		}
		if err := store.Append(tweets); err != nil {
			b.Fatal(err)
		}
	}
	q := tweetdb.Query{FromTS: 1378000000000 + 5_000_000_000, ToTS: 1378000000000 + 6_000_000_000}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		it := store.Scan(q)
		n := 0
		for {
			if _, ok := it.Next(); !ok {
				break
			}
			n++
		}
		if n != 5000 {
			b.Fatalf("scanned %d", n)
		}
	}
}

// BenchmarkGravityFit measures model fitting on a national-scale OD set.
func BenchmarkGravityFit(b *testing.B) {
	e := env(b)
	od := e.Result.Mobility[census.ScaleNational].OD
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := &models.Gravity4{}
		if err := m.Fit(od); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRadiationFit measures the radiation fit (dominated by the
// s-term already precomputed in the OD build).
func BenchmarkRadiationFit(b *testing.B) {
	e := env(b)
	od := e.Result.Mobility[census.ScaleNational].OD
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := &models.Radiation{}
		if err := m.Fit(od); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPearsonTest measures the correlation + p-value kernel on
// Fig. 3-sized inputs.
func BenchmarkPearsonTest(b *testing.B) {
	rng := randx.New(5, 6)
	x := make([]float64, 60)
	y := make([]float64, 60)
	for i := range x {
		x[i] = rng.Float64() * 1e6
		y[i] = x[i] * (0.9 + 0.2*rng.Float64())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := stats.PearsonTest(x, y); err != nil {
			b.Fatal(err)
		}
	}
}

// makeBenchTweets builds a deterministic sorted corpus for codec/storage
// benches.
func makeBenchTweets(n int) []tweet.Tweet {
	rng := randx.New(7, 8)
	tweets := make([]tweet.Tweet, n)
	ts := int64(1378000000000)
	for i := range tweets {
		ts += int64(rng.IntN(60000))
		tweets[i] = tweet.Tweet{
			ID: int64(i), UserID: int64(i / 20), TS: ts,
			Lat: -35 + rng.Float64()*2, Lon: 150 + rng.Float64()*2,
		}
	}
	return tweets
}

// BenchmarkObsOverhead prices the per-event cost instrumentation adds to
// hot paths — one counter add plus one histogram observation — in the
// default mobbench trajectory, so a regression in the metrics layer
// shows up next to the ingest numbers it would silently tax. Must stay
// 0 allocs/op (internal/obs pins the same gate in its own bench).
func BenchmarkObsOverhead(b *testing.B) {
	r := obs.NewRegistry()
	c := r.Counter("bench_events_total", "h")
	h := r.Histogram("bench_lat_seconds", "h", nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Add(1)
		h.Observe(0.0042)
	}
	if c.Value() != int64(b.N) {
		b.Fatal("count drift")
	}
}

// BenchmarkResolverBuild measures constructing the assignment grid of
// each study configuration — what every process that builds a live.Shape
// or a Study pays at start (DESIGN.md §6).
func BenchmarkResolverBuild(b *testing.B) {
	for _, c := range []struct {
		name   string
		scale  census.Scale
		radius float64
	}{
		{"national", census.ScaleNational, census.ScaleNational.SearchRadius()},
		{"state", census.ScaleState, census.ScaleState.SearchRadius()},
		{"metro", census.ScaleMetropolitan, census.ScaleMetropolitan.SearchRadius()},
		{"metro500", census.ScaleMetropolitan, 500},
	} {
		b.Run(c.name, func(b *testing.B) {
			rs, err := census.Australia().Regions(c.scale)
			if err != nil {
				b.Fatal(err)
			}
			entries := make([]index.Entry, rs.Len())
			for i, a := range rs.Areas {
				entries[i] = index.Entry{ID: int64(i), P: a.Center}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := index.NewResolver(entries, c.radius); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
