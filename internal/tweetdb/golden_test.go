package tweetdb

import (
	"os"
	"path/filepath"
	"testing"

	"geomob/internal/testx"
	"geomob/internal/tweet"
)

// TestGoldenRoundTrip pins the segment format: the committed segment,
// written by the encoder before the codecs moved onto internal/wire and
// never to be regenerated, must decode, and its records re-encode
// through a fresh store, byte-identically. Its coordinates lie on the
// microdegree grid, so the header's bounding box is the one the decoded
// records give.
func TestGoldenRoundTrip(t *testing.T) {
	testx.RoundTripGolden(t, map[string]func([]byte) ([]byte, error){
		"testdata/golden/segment.gmseg": func(raw []byte) ([]byte, error) {
			blk, err := decodeSegment(raw)
			if err != nil {
				return nil, err
			}
			var rows tweet.Batch
			blk.AppendTo(&rows, 0, blk.Len())
			store, err := Open(t.TempDir())
			if err != nil {
				return nil, err
			}
			if err := store.AppendBatch(&rows); err != nil {
				return nil, err
			}
			return os.ReadFile(filepath.Join(store.Dir(), store.Segments()[0].File))
		},
	})
}
