package tweetdb

import (
	"fmt"

	"geomob/internal/tweet"
)

// Appender buffers streaming writes into batched Append calls, bounding
// memory while ingesting corpora far larger than RAM would allow as a
// single slice. It is the ingestion front door used by cmd/mobgen. The
// buffer is columnar, so a flush hands whole column slices to segment
// encoding.
//
// An Appender is not safe for concurrent use; wrap it or shard streams by
// writer. Always call Flush (or Close) at the end — buffered records are
// otherwise lost.
type Appender struct {
	store *Store
	buf   *tweet.Batch
	limit int
	total int64
}

// NewAppender creates an appender flushing every batchSize records.
// batchSize 0 selects DefaultSegmentRecords.
func NewAppender(store *Store, batchSize int) (*Appender, error) {
	if store == nil {
		return nil, fmt.Errorf("tweetdb: appender requires a store")
	}
	if batchSize == 0 {
		batchSize = DefaultSegmentRecords
	}
	if batchSize < 1 {
		return nil, fmt.Errorf("tweetdb: appender batch size must be positive, got %d", batchSize)
	}
	b := &tweet.Batch{}
	b.Grow(batchSize)
	return &Appender{
		store: store,
		buf:   b,
		limit: batchSize,
	}, nil
}

// Add buffers one record, flushing when the batch fills.
func (a *Appender) Add(t tweet.Tweet) error {
	if err := t.Validate(); err != nil {
		return fmt.Errorf("tweetdb: appender: %w", err)
	}
	a.buf.Append(t)
	if a.buf.Len() >= a.limit {
		return a.Flush()
	}
	return nil
}

// Flush writes any buffered records as a segment batch. On failure the
// buffer is retained for retry.
func (a *Appender) Flush() error {
	if a.buf.Len() == 0 {
		return nil
	}
	if err := a.store.AppendBatch(a.buf); err != nil {
		return fmt.Errorf("tweetdb: appender flush: %w", err)
	}
	a.total += int64(a.buf.Len())
	a.buf.Reset()
	return nil
}

// Close flushes outstanding records. The appender may not be used after
// Close.
func (a *Appender) Close() error {
	err := a.Flush()
	a.buf = &tweet.Batch{}
	a.limit = 0
	return err
}

// Total returns the number of records durably written so far (excluding
// any still buffered).
func (a *Appender) Total() int64 { return a.total }
