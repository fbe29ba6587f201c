package live

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"geomob/internal/obs"
	"geomob/internal/tweet"
	"geomob/internal/tweetdb"
)

// Ingest-path metrics (DESIGN.md §12). All per-batch, never per-record:
// one counter add and one histogram observation per flush keeps the
// binary ingest hot path at 0 allocs/op per record.
var (
	mIngestRecords = obs.Def.Counter("geomob_ingest_records_total", "Records flushed durably through the ingest path.")
	mIngestBatches = obs.Def.Counter("geomob_ingest_batches_total", "Ingest batch flushes (store append + ring route).")
	mIngestFlush   = obs.Def.Histogram("geomob_ingest_flush_seconds", "Latency of one ingest batch flush.", nil)
	mIngestBad     = obs.Def.Counter("geomob_ingest_bad_input_total", "Ingest streams rejected for malformed records or frames.")
	mIngestStage   = func() (hs [4]*obs.Histogram) {
		for k, name := range ingestStageNames {
			hs[k] = obs.Def.Histogram("geomob_ingest_stage_seconds", "Per-stage latency of a single-node ingest request: decode/store/resolve/ring.", nil, "stage", name)
		}
		return hs
	}()
)

// ingestStageNames names where a request through an Ingestor spends its wall
// time: decode (reading and buffering the body — what the rest leaves),
// store (the durable commit), resolve (the resolve stage) and ring (the
// appends).
var ingestStageNames = [4]string{"decode", "store", "resolve", "ring"}

// ingestStages accumulates one request's share of the last three; the
// plain IngestBatch/Flush pass nil and record nothing.
type ingestStages struct{ store, resolve, ring time.Duration }

// record books the request's four stages, summing to total, on ctx's trace and the histograms.
func (st *ingestStages) record(ctx context.Context, total time.Duration) {
	tr := obs.TraceFrom(ctx)
	for k, d := range [4]time.Duration{total - st.store - st.resolve - st.ring, st.store, st.resolve, st.ring} {
		tr.AddStage(ingestStageNames[k], d)
		mIngestStage[k].Observe(d.Seconds())
	}
}

// Ingestor is the one write path in front of a store and a bucket ring
// (DESIGN.md §7's table): a single node's streaming ingest and a shard's
// deliveries both land through it. Per flushed batch or commit it appends
// the records durably, resolves them and appends them to the ring, in that
// order on the caller's goroutine and under one lock: durability before
// visibility, every record resolved once. It is safe for concurrent use.
type Ingestor struct {
	mu    sync.Mutex
	store *tweetdb.Store // nil for a ring-only write path
	agg   *Aggregator
	// batch buffers the in-progress flush column-wise. A failed flush
	// leaves it alone (the store rolled back, the ring saw nothing), so a
	// retried Flush commits it exactly once.
	batch *tweet.Batch
	limit int
	total atomic.Int64
}

// ErrBadInput marks ingest failures caused by the caller's records —
// malformed NDJSON or invalid tweets — as opposed to internal storage or
// routing failures. Service layers map it to a 400 instead of a 500.
var ErrBadInput = errors.New("live: bad ingest input")

// NewIngestor builds an ingestor over the store, routing flushed batches
// into agg. A nil store skips the durable step: the records go to the
// ring alone. batchSize 0 selects tweetdb.DefaultSegmentRecords.
func NewIngestor(store *tweetdb.Store, agg *Aggregator, batchSize int) (*Ingestor, error) {
	if agg == nil {
		return nil, fmt.Errorf("live: ingestor requires a ring")
	}
	if batchSize == 0 {
		batchSize = tweetdb.DefaultSegmentRecords
	}
	if batchSize < 1 {
		return nil, fmt.Errorf("live: ingestor batch size must be positive, got %d", batchSize)
	}
	return &Ingestor{store: store, agg: agg, batch: &tweet.Batch{}, limit: batchSize}, nil
}

// Snapshot captures the ring and the store's segment catalogue under
// the ingest lock — the lock that orders every store append before its
// ring route, which is exactly what makes "these segment files are
// fully reflected in these snapshot files" a true statement — and
// commits the capture to snaps. On success the captured groups go clean,
// so the next snapshot writes only what changed since.
func (i *Ingestor) Snapshot(snaps *SnapshotStore) (SnapshotStats, error) {
	i.mu.Lock()
	c, err := i.agg.capture()
	var covered []string
	for _, m := range i.store.Segments() {
		covered = append(covered, m.File)
	}
	i.mu.Unlock()
	if err != nil {
		return SnapshotStats{}, err
	}
	st, err := snaps.Commit(c, covered)
	if err == nil {
		i.agg.markSnapshotted(c)
	}
	return st, err
}

// IngestBatch buffers a whole batch, flushing when the buffer fills.
// Invalid records reject the entire batch before any is buffered. The
// batch is copied in; the caller keeps ownership.
func (i *Ingestor) IngestBatch(b *tweet.Batch) error { return i.addBatch(b, nil) }

func (i *Ingestor) addBatch(b *tweet.Batch, st *ingestStages) error {
	if b.Len() == 0 {
		return nil
	}
	if err := b.Validate(); err != nil {
		return fmt.Errorf("%w: %w", ErrBadInput, err)
	}
	i.mu.Lock()
	defer i.mu.Unlock()
	i.batch.AppendBatch(b)
	if i.batch.Len() >= i.limit {
		return i.flushLocked(st)
	}
	return nil
}

// Flush persists and routes any buffered records as one batch.
func (i *Ingestor) Flush() error { return i.flush(nil) }

func (i *Ingestor) flush(st *ingestStages) error {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.flushLocked(st)
}

func (i *Ingestor) flushLocked(st *ingestStages) error {
	n := i.batch.Len()
	if n == 0 {
		return nil
	}
	t0 := time.Now()
	if err := i.commitLocked(i.batch, nil, st); err != nil {
		// Nothing durable, nothing in the ring: i.batch stays for the retry.
		return err
	}
	i.total.Add(int64(n))
	i.batch.Reset()
	mIngestRecords.Add(int64(n))
	mIngestBatches.Inc()
	mIngestFlush.Observe(time.Since(t0).Seconds())
	return nil
}

// Commit lands one valid batch at once, bypassing the buffer: the records
// and meta go to the store in one atomic manifest commit, then into the
// ring. It books none of the geomob_ingest_* series, which count the
// streaming path only.
func (i *Ingestor) Commit(b *tweet.Batch, meta map[string]string) error {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.commitLocked(b, meta, nil)
}

// commitLocked is the write step both paths share, under i.mu: the store
// append (skipped without a store) before the resolve and the ring
// append. A failed append leaves the store rolled back and the ring
// untouched. st, when non-nil, accumulates the three stages.
func (i *Ingestor) commitLocked(b *tweet.Batch, meta map[string]string, st *ingestStages) error {
	t0 := time.Now()
	if i.store != nil {
		if err := i.store.AppendBatchMeta(b, meta); err != nil {
			return err
		}
	}
	t1 := time.Now()
	r := i.agg.Resolve(b)
	t2 := time.Now()
	i.agg.appendResolved(b, r)
	r.release()
	if st != nil {
		t3 := time.Now()
		st.store, st.resolve, st.ring = st.store+t1.Sub(t0), st.resolve+t2.Sub(t1), st.ring+t3.Sub(t2)
	}
	return nil
}

// Total returns the number of records flushed so far.
func (i *Ingestor) Total() int64 { return i.total.Load() }

// Backfill routes every record of the store into the aggregator's ring in
// one scan — the boot-time hydration of a live (or cluster shard) node:
// one scan now, then never again, because every later record arrives
// through an Ingestor or a delivery and is resolved exactly once on its
// way in. It returns the number of records backfilled.
func Backfill(a *Aggregator, store *tweetdb.Store) (int64, error) {
	return backfill(a, store, tweetdb.Query{}, nil)
}

// backfillChunk bounds the records one backfill chunk carries.
const backfillChunk = 1 << 14

// chunk is one backfill chunk: records and what Resolve made of them.
type chunk struct {
	b tweet.Batch
	r *resolved
}

// backfill is the one store-to-ring replay behind every boot path, a
// two-stage pipeline: one goroutine scans q, decodes, filters and
// resolves chunk k+1 while the caller's appends chunk k, in scan order, so
// the ring ends up as a one-goroutine replay leaves it. keep, when
// non-nil, drops the records whose time it refuses. It returns the
// number of records appended.
func backfill(a *Aggregator, store *tweetdb.Store, q tweetdb.Query, keep func(ts int64) bool) (int64, error) {
	// One chunk being filled, one waiting, one being appended; every chunk
	// received from out returns to free, so neither side blocks for good.
	free, out := make(chan *chunk, 3), make(chan *chunk, 1)
	for k := 0; k < cap(free); k++ {
		free <- new(chunk)
	}
	var scanErr error
	go func() {
		defer close(out)
		scanErr = scanChunks(store.Scan(q), a.Shape, keep, free, out)
	}()
	total := int64(0)
	for c := range out {
		a.appendResolved(&c.b, c.r)
		c.r.release()
		total += int64(c.b.Len())
		c.b.Reset()
		free <- c
	}
	return total, scanErr
}

// scanChunks is backfill's first stage: it fills chunks from free with
// the scan's kept, validated, resolved records and sends them on out.
func scanChunks(it *tweetdb.Iterator, sh *Shape, keep func(ts int64) bool, free <-chan *chunk, out chan<- *chunk) error {
	defer it.Close()
	c := <-free
	send := func() error {
		if err := c.b.Validate(); err != nil {
			return fmt.Errorf("live: backfill: %w", err)
		}
		c.r = sh.Resolve(&c.b)
		out <- c
		c = <-free
		return nil
	}
	for {
		blk, ok := it.NextBlock()
		if !ok {
			break
		}
		// The block aliases the file bytes; records leave it in column chunks.
		for off := 0; off < blk.Len(); {
			if keep == nil {
				end := min(blk.Len(), off+backfillChunk-c.b.Len())
				blk.AppendTo(&c.b, off, end)
				off = end
			} else {
				if keep(blk.TS[off]) {
					c.b.Append(blk.Row(off))
				}
				off++
			}
			if c.b.Len() == backfillChunk {
				if err := send(); err != nil {
					return err
				}
			}
		}
	}
	if err := it.Err(); err != nil || c.b.Len() == 0 {
		return err
	}
	return send()
}

// Ingest drains a stream of batches through the ingestor and flushes at
// the end, returning how many records the stream contributed; read is a
// decoder's batch method (tweet.NDJSONReader.ReadBatch or
// tweet.BatchReader.Read). The ingest stages land on ctx's trace.
func (i *Ingestor) Ingest(ctx context.Context, read func(*tweet.Batch) error) (int, error) {
	st, t0 := &ingestStages{}, time.Now()
	n, err := Drain(read,
		func(b *tweet.Batch) error { return i.addBatch(b, st) },
		func() error { return i.flush(st) })
	st.record(ctx, time.Since(t0))
	return n, err
}

// Drain is the one ingest loop every write front shares (Ingestor and
// cluster coordinator): read fills a batch, add takes it, and flush runs
// at the end. The returned count is in records: every record of each
// batch add accepted before the first failure — the resume point the
// at-least-once contract hands back to clients; a batch whose add failed
// contributes none. On a decode failure (a malformed record, a corrupt
// frame, or a failed transport such as a request-body bound) everything
// accepted so far is still flushed, and the error wraps ErrBadInput plus
// the cause with %w on both sides, so service layers map it by walking
// the chain (400 for the caller's records, 413 for size violations:
// http.MaxBytesError, bufio.ErrTooLong, tweet.ErrFrameTooLarge).
func Drain(read func(*tweet.Batch) error, add func(*tweet.Batch) error, flush func() error) (int, error) {
	b := &tweet.Batch{}
	n := 0
	for {
		err := read(b)
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			mIngestBad.Inc()
			if ferr := flush(); ferr != nil {
				return n, ferr
			}
			return n, fmt.Errorf("%w: %w", ErrBadInput, err)
		}
		if err := add(b); err != nil {
			return n, err
		}
		n += b.Len()
	}
	return n, flush()
}
