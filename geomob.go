// Package geomob is a Go reproduction of "Multi-scale Population and
// Mobility Estimation with Geo-tagged Tweets" (Liu, Zhao, Khan, Cameron,
// Jurdak — CSIRO, ICDE 2015 workshops / arXiv:1412.0327).
//
// The package is the public facade over the internal implementation:
//
//   - a calibrated synthetic tweet-corpus generator standing in for the
//     paper's 6.3M-tweet collection (see DESIGN.md for the substitution),
//   - an embedded Australian census gazetteer at the paper's three scales,
//   - an append-only tweet storage engine with predicate pushdown,
//   - the multi-scale Study pipeline (population estimation, OD flow
//     extraction, gravity/radiation model fitting and comparison), and
//   - a metapopulation SIR simulator over the estimated flows (the
//     paper's stated future-work application).
//
// Quickstart:
//
//	tweets, _ := geomob.GenerateCorpus(geomob.DefaultCorpusConfig(20000, 42, 43))
//	result, _ := geomob.NewStudy(geomob.SliceSource(tweets)).Run()
//	fmt.Println(result.Pooled.TestLog.R) // Fig. 3 pooled correlation
//
// Request-scoped executions compute only what is asked for, honour
// context cancellation, and restrict to a time window (pushed down into
// the store scan when the source is a tweetdb store):
//
//	study := geomob.NewStudy(geomob.SliceSource(tweets))
//	flows, _ := study.Execute(ctx, geomob.StudyRequest{
//		Analyses: []geomob.Analysis{geomob.AnalysisFlows},
//		Scales:   []geomob.Scale{geomob.ScaleState},
//	})
package geomob

import (
	"geomob/internal/census"
	"geomob/internal/cluster"
	"geomob/internal/core"
	"geomob/internal/epidemic"
	"geomob/internal/geo"
	"geomob/internal/live"
	"geomob/internal/mobility"
	"geomob/internal/models"
	"geomob/internal/population"
	"geomob/internal/synth"
	"geomob/internal/tweet"
	"geomob/internal/tweetdb"
)

// Core data types.
type (
	// Tweet is one geo-tagged tweet record: (id, user, timestamp, lat, lon).
	Tweet = tweet.Tweet
	// TweetBatch is the column form of a tweet slice: the unit every
	// write path (LiveIngestor, ClusterCoordinator) takes.
	TweetBatch = tweet.Batch
	// Point is a WGS-84 coordinate in decimal degrees.
	Point = geo.Point
	// BBox is an axis-aligned geographic bounding box.
	BBox = geo.BBox
	// Scale identifies one of the paper's three geographic scales.
	Scale = census.Scale
	// Area is one census region (name, centre, population).
	Area = census.Area
	// RegionSet is the ordered area list studied at one scale.
	RegionSet = census.RegionSet
)

// The three geographic scales of the paper (§III).
const (
	ScaleNational     = census.ScaleNational
	ScaleState        = census.ScaleState
	ScaleMetropolitan = census.ScaleMetropolitan
)

// Scales returns the three scales in paper order.
func Scales() []Scale { return census.Scales() }

// NewTweetBatch converts a tweet slice into a fresh column batch.
func NewTweetBatch(tweets []Tweet) *TweetBatch { return tweet.BatchOf(tweets) }

// Gazetteer returns the embedded Australian census gazetteer.
func Gazetteer() *census.Gazetteer { return census.Australia() }

// AustraliaBBox is the paper's study region (Table I coordinate ranges).
var AustraliaBBox = geo.AustraliaBBox

// Corpus generation (the data-gate substitution; see DESIGN.md §1).
type (
	// CorpusConfig parameterises the synthetic tweet corpus.
	CorpusConfig = synth.Config
	// Generator streams synthetic corpora.
	Generator = synth.Generator
)

// DefaultCorpusConfig returns the calibrated corpus configuration for the
// given user count and seed pair. The paper's full corpus corresponds to
// 473,956 users.
func DefaultCorpusConfig(users int, seed1, seed2 uint64) CorpusConfig {
	return synth.DefaultConfig(users, seed1, seed2)
}

// NewGenerator builds a corpus generator for the config.
func NewGenerator(cfg CorpusConfig) (*Generator, error) { return synth.NewGenerator(cfg) }

// GenerateCorpus materialises a corpus in memory, in (user, time) order.
func GenerateCorpus(cfg CorpusConfig) ([]Tweet, error) {
	gen, err := synth.NewGenerator(cfg)
	if err != nil {
		return nil, err
	}
	return gen.GenerateAll()
}

// Storage engine.
type (
	// Store is the append-only tweet database.
	Store = tweetdb.Store
	// StoreQuery restricts store scans (time range, bbox, user).
	StoreQuery = tweetdb.Query
)

// OpenStore opens or initialises a tweet store rooted at dir.
func OpenStore(dir string) (*Store, error) { return tweetdb.Open(dir) }

// Study pipeline (the paper's contribution).
type (
	// Study is the multi-scale estimation pipeline. Run computes
	// everything; Execute computes exactly what a StudyRequest selects.
	Study = core.Study
	// StudyRequest scopes one Study.Execute: analyses, scales, the
	// half-open time window [From, To) and the search radius.
	StudyRequest = core.Request
	// Analysis selects one deliverable family of a StudyRequest.
	Analysis = core.Analysis
	// StudyResult bundles Table I, Fig. 2/3 inputs, Fig. 4 and Table II.
	StudyResult = core.Result
	// StudyOptions configure execution (worker parallelism).
	StudyOptions = core.StudyOptions
	// Source yields a (user, time)-ordered tweet stream.
	Source = core.Source
	// ShardedSource is a Source that splits into user-disjoint sub-streams
	// for the parallel pipeline (DESIGN.md §4).
	ShardedSource = core.ShardedSource
	// SliceSource adapts an in-memory sorted tweet slice.
	SliceSource = core.SliceSource
	// StoreSource adapts a compacted tweet store.
	StoreSource = core.StoreSource
	// ModelFit is one fitted mobility model with metrics and scatter data.
	ModelFit = core.ModelFit
	// MobilityResult is the §IV analysis for one scale.
	MobilityResult = core.MobilityResult
	// PopulationEstimate is the §III analysis for one scale.
	PopulationEstimate = population.Estimate
	// AreaMapper assigns coordinates to census areas by the paper's
	// nearest-within-ε rule, through a precomputed grid resolver
	// (DESIGN.md §6): the per-point lookup is O(1) and allocation-free.
	AreaMapper = mobility.AreaMapper
	// MultiScaleMapper assigns a coordinate at several scales in one
	// call, sharing the decode across the per-scale resolvers.
	MultiScaleMapper = mobility.MultiScaleMapper
)

// NewAreaMapper builds the nearest-within-ε assigner for a region set.
// Radius zero uses the scale's paper-default search radius.
func NewAreaMapper(rs RegionSet, radius float64) (*AreaMapper, error) {
	return mobility.NewAreaMapper(rs, radius)
}

// NewMultiScaleMapper bundles per-scale area mappers so a point is decoded
// once and assigned at every scale in a single MapAll call.
func NewMultiScaleMapper(mappers ...*AreaMapper) (*MultiScaleMapper, error) {
	return mobility.NewMultiScaleMapper(mappers...)
}

// The selectable analyses of a StudyRequest.
const (
	// AnalysisStats is the Table I dataset statistics.
	AnalysisStats = core.AnalysisStats
	// AnalysisPopulation is the §III population estimation (Fig. 3).
	AnalysisPopulation = core.AnalysisPopulation
	// AnalysisMobility is the §IV model comparison (Fig. 4, Table II).
	AnalysisMobility = core.AnalysisMobility
	// AnalysisFlows is the raw OD flow extraction without model fitting.
	AnalysisFlows = core.AnalysisFlows
)

// NewStudy binds a tweet source to the embedded gazetteer with default
// options (one worker per CPU; results are worker-count independent).
func NewStudy(src Source) *Study { return core.NewStudy(src) }

// NewStudyWithOptions binds a tweet source to the embedded gazetteer with
// explicit execution options.
func NewStudyWithOptions(src Source, opts StudyOptions) *Study {
	return core.NewStudyWithOptions(src, opts)
}

// Live ingest and incremental aggregation (DESIGN.md §7).
type (
	// LiveAggregator is the time-bucket ring: it absorbs tweet batches
	// through the assignment hot path once at ingest and answers
	// windowed StudyRequests by folding materialised per-bucket partials
	// — bit-identical to a cold full pass, with zero storage scans.
	LiveAggregator = live.Aggregator
	// LiveOptions configure the ring: its bucket width. Every ring
	// materialises the paper's three scales at their paper radii plus
	// the metro 0.5 km variant, and keeps its whole history.
	LiveOptions = live.Options
	// LiveIngestor is the streaming write path: batches are durably
	// appended to a Store and routed into the ring in lockstep.
	LiveIngestor = live.Ingestor
)

// NewLiveAggregator builds a bucket ring materialising the paper-default
// request shape (all three scales and analyses).
func NewLiveAggregator(opts LiveOptions) (*LiveAggregator, error) {
	return live.NewAggregator(opts)
}

// NewLiveIngestor builds the streaming write path over a store, routing
// flushed batches into agg (required). batchSize 0 selects the store's
// default segment size.
func NewLiveIngestor(store *Store, agg *LiveAggregator, batchSize int) (*LiveIngestor, error) {
	return live.NewIngestor(store, agg, batchSize)
}

// Cluster scale-out (DESIGN.md §8): user-hash-partitioned shard nodes
// answering Study requests by scatter-gather, bit-identical to a
// single-node pass.
type (
	// ClusterShard is one user partition behind a uniform interface
	// (in-process or remote).
	ClusterShard = cluster.Shard
	// ClusterLocalShard is an in-process partition: a bucket ring in
	// lockstep with an optional per-partition store.
	ClusterLocalShard = cluster.LocalShard
	// ClusterNode serves one local shard over the internal /shard/v1 API.
	ClusterNode = cluster.Node
	// ClusterHTTPShard is the client side of a remote shard node.
	ClusterHTTPShard = cluster.HTTPShard
	// ClusterCoordinator routes ingest by user hash and answers requests
	// by scatter-gather with coverage-fingerprint snapshot caching.
	ClusterCoordinator = cluster.Coordinator
	// ClusterCoordinatorOptions tune batching, backpressure and caching.
	ClusterCoordinatorOptions = cluster.CoordinatorOptions
	// ClusterShardPartial is the scatter-gather unit: one shard's folded
	// observer state at per-user granularity.
	ClusterShardPartial = live.ShardPartial
)

// NewClusterLocalShard builds an in-process partition over a store (nil
// for a ring-only shard) with the given ring options.
func NewClusterLocalShard(store *Store, opts LiveOptions) (*ClusterLocalShard, error) {
	return cluster.NewLocalShard(store, opts)
}

// NewClusterCoordinator builds a coordinator over the shards; the shard
// order fixes the partitioning, so it must be identical cluster-wide.
func NewClusterCoordinator(shards []ClusterShard, opts ClusterCoordinatorOptions) (*ClusterCoordinator, error) {
	return cluster.NewCoordinator(shards, opts)
}

// NewClusterNode serves one local shard over the internal shard API.
func NewClusterNode(shard *ClusterLocalShard, opts cluster.NodeOptions) *ClusterNode {
	return cluster.NewNode(shard, opts)
}

// NewClusterHTTPShard builds a client for a remote shard node (hc nil
// selects a sensible default).
func NewClusterHTTPShard(base string) *ClusterHTTPShard { return cluster.NewHTTPShard(base, nil) }

// Mobility models (§IV).
type (
	// Model is a fittable mobility model.
	Model = models.Model
	// Gravity4 is the 4-parameter gravity model (Eq. 1).
	Gravity4 = models.Gravity4
	// Gravity2 is the 2-parameter gravity model (Eq. 2).
	Gravity2 = models.Gravity2
	// Radiation is the radiation model (Eq. 3).
	Radiation = models.Radiation
	// InterveningOpportunities is the extension baseline beyond the paper.
	InterveningOpportunities = models.InterveningOpportunities
	// OD is an origin–destination dataset for model fitting.
	OD = models.OD
	// ModelMetrics are the Table II evaluation numbers (plus CPC).
	ModelMetrics = models.Metrics
)

// AllModels returns the three models in the paper's order.
func AllModels() []Model { return models.All() }

// AllModelsExtended additionally includes the intervening-opportunities
// baseline.
func AllModelsExtended() []Model { return models.AllExtended() }

// CommonPartOfCommuters returns the CPC overlap between two flow vectors.
func CommonPartOfCommuters(pred, obs []float64) (float64, error) {
	return models.CommonPartOfCommuters(pred, obs)
}

// BuildOD assembles an OD dataset from areas, populations and flows.
func BuildOD(areas []Area, pop []float64, flow [][]float64) (*OD, error) {
	return models.BuildOD(areas, pop, flow)
}

// EvaluateModel scores a fitted model against observed flows (Table II).
func EvaluateModel(od *OD, m Model) (*ModelMetrics, error) { return models.Evaluate(od, m) }

// Epidemic extension (§V future work).
type (
	// EpidemicParams are the SIR parameters.
	EpidemicParams = epidemic.Params
	// EpidemicResult is a complete simulation trace.
	EpidemicResult = epidemic.Result
	// SEIRParams extend SIR with a latent compartment.
	SEIRParams = epidemic.SEIRParams
	// SEIRResult is a complete SEIR trace.
	SEIRResult = epidemic.SEIRResult
	// StochasticResult summarises a discrete-state outbreak ensemble.
	StochasticResult = epidemic.StochasticResult
)

// DefaultEpidemicParams models an influenza-like pathogen (R0 = 1.8).
func DefaultEpidemicParams() EpidemicParams { return epidemic.DefaultParams() }

// DefaultSEIRParams adds a two-day latent period to the defaults.
func DefaultSEIRParams() SEIRParams { return epidemic.DefaultSEIRParams() }

// SimulateEpidemic runs a metapopulation SIR outbreak over a flow matrix.
func SimulateEpidemic(areas []Area, flows [][]float64, seedArea int, seedCases float64, p EpidemicParams) (*EpidemicResult, error) {
	return epidemic.Simulate(areas, flows, seedArea, seedCases, p)
}

// SimulateSEIR runs the latent-compartment variant.
func SimulateSEIR(areas []Area, flows [][]float64, seedArea int, seedCases float64, p SEIRParams) (*SEIRResult, error) {
	return epidemic.SimulateSEIR(areas, flows, seedArea, seedCases, p)
}

// SimulateEpidemicEnsemble runs a stochastic discrete-state SIR ensemble.
func SimulateEpidemicEnsemble(areas []Area, flows [][]float64, seedArea, seedCases int, p EpidemicParams, runs int, seed1, seed2 uint64) (*StochasticResult, error) {
	return epidemic.SimulateStochastic(areas, flows, seedArea, seedCases, p, runs, seed1, seed2)
}
