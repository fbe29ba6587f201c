package cluster

import (
	"testing"

	"geomob/internal/testx"
)

// TestGoldenRoundTrip pins the two shard wire formats: the committed
// partials reply and deliveries envelope, written by the encoders before
// the codecs moved onto internal/wire and never to be regenerated, must
// decode and re-encode byte-identically.
func TestGoldenRoundTrip(t *testing.T) {
	testx.RoundTripGolden(t, map[string]func([]byte) ([]byte, error){
		"testdata/golden/partials.gmcp": func(raw []byte) ([]byte, error) {
			ps, err := DecodePartials(raw)
			if err != nil {
				return nil, err
			}
			return EncodePartials(ps), nil
		},
		"testdata/golden/deliveries.bin": func(raw []byte) ([]byte, error) {
			ds, err := decodeDeliveries(raw)
			if err != nil {
				return nil, err
			}
			return appendDeliveries(nil, ds), nil
		},
	})
}
