package tweet

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
)

// NDJSONWriter streams tweets as newline-delimited JSON, one object per
// line — the standard interchange format for tweet corpora.
type NDJSONWriter struct {
	w   *bufio.Writer
	enc *json.Encoder
	n   int
}

// NewNDJSONWriter wraps w. Call Flush when done.
func NewNDJSONWriter(w io.Writer) *NDJSONWriter {
	bw := bufio.NewWriterSize(w, 1<<16)
	return &NDJSONWriter{w: bw, enc: json.NewEncoder(bw)}
}

// Write appends one tweet as a JSON line. Invalid tweets are rejected.
func (w *NDJSONWriter) Write(t Tweet) error {
	if err := t.Validate(); err != nil {
		return fmt.Errorf("ndjson write: %w", err)
	}
	if err := w.enc.Encode(t); err != nil {
		return fmt.Errorf("ndjson write: %w", err)
	}
	w.n++
	return nil
}

// Count returns the number of tweets written so far.
func (w *NDJSONWriter) Count() int { return w.n }

// Flush drains the internal buffer to the underlying writer.
func (w *NDJSONWriter) Flush() error {
	if err := w.w.Flush(); err != nil {
		return fmt.Errorf("ndjson flush: %w", err)
	}
	return nil
}

// NDJSONReader streams tweets back from newline-delimited JSON.
type NDJSONReader struct {
	sc   *bufio.Scanner
	line int
	err  error // the failure ReadBatch holds back behind a valid prefix
}

// ndjsonBatchRows bounds the records one ReadBatch decodes.
const ndjsonBatchRows = 1 << 13

// NewNDJSONReader wraps r. Lines up to 1 MiB are accepted.
func NewNDJSONReader(r io.Reader) *NDJSONReader {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	return &NDJSONReader{sc: sc}
}

// Read returns the next tweet. It returns io.EOF at the end of the stream,
// and a descriptive error (with line number) for malformed or invalid
// records. Blank lines are skipped.
func (r *NDJSONReader) Read() (Tweet, error) {
	for r.sc.Scan() {
		r.line++
		line := r.sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var t Tweet
		if err := json.Unmarshal(line, &t); err != nil {
			return Tweet{}, r.lineErr(err)
		}
		if err := t.Validate(); err != nil {
			return Tweet{}, r.lineErr(err)
		}
		return t, nil
	}
	if err := r.sc.Err(); err != nil {
		return Tweet{}, fmt.Errorf("ndjson line %d: %w", r.line, err)
	}
	return Tweet{}, io.EOF
}

// ReadBatch decodes up to 8 192 of the next records into b, replacing its
// contents — NDJSON as column batches, the unit every write path takes.
// It returns io.EOF once the stream is drained. A failure Read would
// report ends the batch early: b comes back holding the valid records
// before it with a nil error, and the failure comes back from the next
// call with b empty, so a caller commits the valid prefix first.
func (r *NDJSONReader) ReadBatch(b *Batch) error {
	b.Reset()
	for r.err == nil && b.Len() < ndjsonBatchRows {
		var t Tweet
		if t, r.err = r.Read(); r.err == nil {
			b.Append(t)
		}
	}
	if b.Len() > 0 {
		return nil
	}
	return r.err
}

// lineErr wraps a per-record failure, preferring a pending stream error:
// when the underlying reader failed mid-line (a bounded request body, a
// dropped connection), the scanner still surfaces the truncated tail as
// a final token, and the resulting parse failure is an artifact of the
// transport — the transport error is the one service layers must see
// (e.g. to answer 413 rather than blaming the caller's records).
func (r *NDJSONReader) lineErr(err error) error {
	if serr := r.sc.Err(); serr != nil {
		return fmt.Errorf("ndjson line %d: %w", r.line, serr)
	}
	return fmt.Errorf("ndjson line %d: %w", r.line, err)
}

// ReadAll drains the stream into a slice.
func (r *NDJSONReader) ReadAll() ([]Tweet, error) {
	var out []Tweet
	for {
		t, err := r.Read()
		if errors.Is(err, io.EOF) {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, t)
	}
}
