package tweetdb

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"geomob/internal/testx"
	"geomob/internal/tweet"
	"geomob/internal/wire"
)

// TestGoldenRoundTrip pins the segment and catalogue log formats, from
// committed files never to be regenerated. The segment, written by the
// encoder before the codecs moved onto internal/wire, must decode, and
// its records re-encode through a fresh store, byte-identically. Its
// coordinates lie on the microdegree grid, so the header's bounding box
// is the one the decoded records give. The log — a checkpoint of two
// segments and a mark, two one-append records and a meta-only one —
// must replay whole, and each record re-encode from what it decodes to.
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
		"testdata/golden/MANIFEST.log": func(raw []byte) ([]byte, error) {
			if _, valid, err := replayLog(raw); err != nil || valid != len(raw) {
				return nil, fmt.Errorf("replay kept %d of %d bytes: %v", valid, len(raw), err)
			}
			w := wire.NewWriter(nil)
			w.Raw([]byte(logHeader))
			for r := wire.NewReader(raw[len(logHeader):]); r.Len() > 0; {
				var rec manifest
				if err := rec.apply(r.Section()); err != nil {
					return nil, err
				}
				putLogRecord(&w, rec.NextSeq, rec.Segments, rec.Meta)
			}
			return w.Bytes(), nil
		},
	})
}
