package tweet

import (
	"bytes"
	"testing"

	"geomob/internal/testx"
)

// TestGoldenRoundTrip pins the batch frame format: the committed frame,
// written by the encoder before the codecs moved onto internal/wire and
// never to be regenerated, must decode and re-encode byte-identically.
func TestGoldenRoundTrip(t *testing.T) {
	testx.RoundTripGolden(t, map[string]func([]byte) ([]byte, error){
		"testdata/golden/frame.gmtb": func(raw []byte) ([]byte, error) {
			var b Batch
			if err := NewBatchReader(bytes.NewReader(raw), 0).Read(&b); err != nil {
				return nil, err
			}
			return AppendFrame(nil, &b)
		},
	})
}
