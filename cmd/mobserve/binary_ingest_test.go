package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"net/http"
	"testing"

	"geomob/internal/synth"
	"geomob/internal/tweet"
)

// corpusBinary renders tweets as binary batch frames, several records per
// frame so a body holds multiple frames.
func corpusBinary(t *testing.T, tweets []tweet.Tweet, frameRecords int) *bytes.Buffer {
	t.Helper()
	var buf bytes.Buffer
	w := tweet.NewBatchWriter(&buf)
	b := &tweet.Batch{}
	for _, tw := range tweets {
		b.Append(tw)
		if b.Len() >= frameRecords {
			if err := w.Write(b); err != nil {
				t.Fatal(err)
			}
			b.Reset()
		}
	}
	if b.Len() > 0 {
		if err := w.Write(b); err != nil {
			t.Fatal(err)
		}
	}
	return &buf
}

// postBinary POSTs a binary batch body to the ingest endpoint and returns
// the status code and decoded JSON body (nil when not JSON).
func postBinary(t *testing.T, url string, body *bytes.Buffer) (int, map[string]any) {
	t.Helper()
	resp, err := http.Post(url+"/v1/ingest", tweet.BatchContentType, body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	_ = json.NewDecoder(resp.Body).Decode(&out)
	return resp.StatusCode, out
}

// TestBinaryIngestEndToEnd: the binary content type lands records in the
// store and ring exactly like NDJSON, in single-node and cluster modes.
func TestBinaryIngestEndToEnd(t *testing.T) {
	gen, err := synth.NewGenerator(synth.DefaultConfig(300, 21, 22))
	if err != nil {
		t.Fatal(err)
	}
	tweets, err := gen.GenerateAll()
	if err != nil {
		t.Fatal(err)
	}

	s, ts := newLiveTestServer(t)
	e := s.eng.(*ringEngine)
	status, body := postBinary(t, ts.URL, corpusBinary(t, tweets, 1000))
	if status != http.StatusOK || int(body["ingested"].(float64)) != len(tweets) {
		t.Fatalf("binary ingest: status %d body %v", status, body)
	}
	if got := e.store.Count(); got != int64(len(tweets)) {
		t.Fatalf("store holds %d records, want %d", got, len(tweets))
	}
	if got := e.agg.Ingested(); got != int64(len(tweets)) {
		t.Fatalf("ring ingested %d records, want %d", got, len(tweets))
	}

	_, tsc, locals := newClusterTestServer(t, 3)
	status, body = postBinary(t, tsc.URL, corpusBinary(t, tweets, 1000))
	if status != http.StatusAccepted || int(body["ingested"].(float64)) != len(tweets) {
		t.Fatalf("cluster binary ingest: status %d body %v, want 202", status, body)
	}
	var stored int64
	for _, l := range locals {
		stored += l.Store().Count()
	}
	if stored != int64(len(tweets)) {
		t.Fatalf("partition stores hold %d records, want %d", stored, len(tweets))
	}
}

// TestBinaryIngestBodyLimit: binary bodies over -max-ingest-bytes answer
// 413 like NDJSON ones, in both modes, without disturbing the server.
func TestBinaryIngestBodyLimit(t *testing.T) {
	gen, err := synth.NewGenerator(synth.DefaultConfig(200, 23, 24))
	if err != nil {
		t.Fatal(err)
	}
	tweets, err := gen.GenerateAll()
	if err != nil {
		t.Fatal(err)
	}

	s, ts := newLiveTestServer(t)
	s.maxIngestBytes = 512
	status, _ := postBinary(t, ts.URL, corpusBinary(t, tweets, 1000))
	if status != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized binary body: status %d, want 413", status)
	}
	// A within-bound frame still works on the same server.
	status, body := postBinary(t, ts.URL, corpusBinary(t, tweets[:3], 8))
	if status != http.StatusOK || int(body["ingested"].(float64)) != 3 {
		t.Fatalf("within-bound binary ingest: status %d body %v", status, body)
	}

	sc, tsc, _ := newClusterTestServer(t, 2)
	sc.maxIngestBytes = 512
	status, _ = postBinary(t, tsc.URL, corpusBinary(t, tweets, 1000))
	if status != http.StatusRequestEntityTooLarge {
		t.Fatalf("cluster oversized binary body: status %d, want 413", status)
	}
}

// TestBinaryIngestCorruptFrames: structural corruption answers 400, and a
// length prefix promising more than the ingest bound answers 413 before
// any buffering — the ErrFrameTooLarge sentinel survives the status
// mapping even though the body itself is tiny.
func TestBinaryIngestCorruptFrames(t *testing.T) {
	s, ts := newLiveTestServer(t)
	s.maxIngestBytes = 1 << 16

	valid := corpusBinary(t, []tweet.Tweet{{ID: 1, UserID: 1, TS: 5, Lat: -33.8, Lon: 151.2}}, 8)

	// A length prefix below the fixed frame header is corrupt: 400.
	short := append([]byte(nil), valid.Bytes()...)
	binary.LittleEndian.PutUint32(short[:4], 10)
	status, _ := postBinary(t, ts.URL, bytes.NewBuffer(short))
	if status != http.StatusBadRequest {
		t.Fatalf("corrupt length prefix: status %d, want 400", status)
	}

	// Bad magic: 400.
	badMagic := append([]byte(nil), valid.Bytes()...)
	binary.LittleEndian.PutUint32(badMagic[4:8], 0xdeadbeef)
	status, _ = postBinary(t, ts.URL, bytes.NewBuffer(badMagic))
	if status != http.StatusBadRequest {
		t.Fatalf("bad frame magic: status %d, want 400", status)
	}

	// A flipped payload byte trips the column CRC: 400.
	crc := append([]byte(nil), valid.Bytes()...)
	crc[24] ^= 0xff
	status, _ = postBinary(t, ts.URL, bytes.NewBuffer(crc))
	if status != http.StatusBadRequest {
		t.Fatalf("column CRC corruption: status %d, want 400", status)
	}

	// A length prefix promising a frame beyond the ingest bound: 413.
	huge := append([]byte(nil), valid.Bytes()...)
	binary.LittleEndian.PutUint32(huge[:4], 1<<30)
	status, _ = postBinary(t, ts.URL, bytes.NewBuffer(huge))
	if status != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized frame prefix: status %d, want 413", status)
	}

	// An invalid record inside a structurally sound frame: 400.
	bad := &tweet.Batch{}
	bad.Append(tweet.Tweet{ID: 1, UserID: 1, TS: 1, Lat: 999, Lon: 0})
	frame, err := tweet.AppendFrame(nil, bad)
	if err != nil {
		t.Fatal(err)
	}
	status, _ = postBinary(t, ts.URL, bytes.NewBuffer(frame))
	if status != http.StatusBadRequest {
		t.Fatalf("invalid record in frame: status %d, want 400", status)
	}

	// The server is still healthy and ingests a valid body afterwards.
	status, body := postBinary(t, ts.URL, corpusBinary(t, []tweet.Tweet{{ID: 2, UserID: 1, TS: 6, Lat: -33.8, Lon: 151.2}}, 8))
	if status != http.StatusOK || int(body["ingested"].(float64)) != 1 {
		t.Fatalf("post-error ingest: status %d body %v", status, body)
	}
}
