package live

import (
	"encoding/json"
	"testing"
	"time"

	"geomob/internal/testx"
)

// TestGoldenRoundTrip pins the snapshot formats: the committed day file
// of hour partials and a day merge, and its manifest, must decode and
// re-encode byte-identically. They were last written at day-file version
// 3, whose flow cells carry their users' placement slot; regenerate them
// only with a version bump.
func TestGoldenRoundTrip(t *testing.T) {
	sh, err := NewShape(Options{BucketWidth: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	testx.RoundTripGolden(t, map[string]func([]byte) ([]byte, error){
		"testdata/golden/day.gmsnap": func(raw []byte) ([]byte, error) {
			f, err := sh.decodeSnapFile(raw)
			if err != nil {
				return nil, err
			}
			return sh.encodeSnapFile(f), nil
		},
		"testdata/golden/" + snapManifestName: func(raw []byte) ([]byte, error) {
			man, err := parseManifest(raw)
			if err != nil {
				return nil, err
			}
			return json.MarshalIndent(man, "", "  ")
		},
	})
}
