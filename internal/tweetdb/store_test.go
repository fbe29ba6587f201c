package tweetdb

import (
	"encoding/binary"
	"math/rand/v2"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"geomob/internal/geo"
	"geomob/internal/testx"
	"geomob/internal/tweet"
)

// makeTweets builds a deterministic batch of n tweets across users spread
// over the Sydney–Melbourne corridor.
func makeTweets(seed uint64, n int) []tweet.Tweet {
	rng := rand.New(rand.NewPCG(seed, seed+1))
	out := make([]tweet.Tweet, n)
	ts := int64(1378000000000)
	for i := range out {
		ts += int64(rng.IntN(120000))
		out[i] = tweet.Tweet{
			ID:     int64(i),
			UserID: int64(rng.IntN(50)),
			TS:     ts,
			Lat:    -38 + rng.Float64()*5, // [-38, -33]
			Lon:    144 + rng.Float64()*8, // [144, 152]
		}
	}
	return out
}

func openStore(t *testing.T) *Store {
	t.Helper()
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestAppendScanRoundTrip(t *testing.T) {
	s := openStore(t)
	tweets := makeTweets(1, 3000)
	if err := s.Append(tweets); err != nil {
		t.Fatal(err)
	}
	if s.Count() != int64(len(tweets)) {
		t.Fatalf("Count = %d, want %d", s.Count(), len(tweets))
	}
	got, err := s.Scan(Query{}).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(tweets) {
		t.Fatalf("scanned %d, want %d", len(got), len(tweets))
	}
	// Same multiset of IDs.
	seen := map[int64]bool{}
	for _, tw := range got {
		if seen[tw.ID] {
			t.Fatalf("duplicate id %d", tw.ID)
		}
		seen[tw.ID] = true
	}
	for _, tw := range tweets {
		if !seen[tw.ID] {
			t.Fatalf("missing id %d", tw.ID)
		}
	}
}

func TestReopenPersists(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	tweets := makeTweets(2, 500)
	if err := s.Append(tweets); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Count() != int64(len(tweets)) {
		t.Fatalf("reopened Count = %d", s2.Count())
	}
	if err := s2.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestAppendEmptyIsNoop(t *testing.T) {
	s := openStore(t)
	if err := s.Append(nil); err != nil {
		t.Fatal(err)
	}
	if s.Count() != 0 || len(s.Segments()) != 0 {
		t.Error("empty append should not create segments")
	}
}

func TestTimeRangeQueryAndPruning(t *testing.T) {
	s := openStore(t)
	// Three batches with disjoint time ranges → three segments.
	base := int64(1378000000000)
	for b := 0; b < 3; b++ {
		var batch []tweet.Tweet
		for i := 0; i < 100; i++ {
			batch = append(batch, tweet.Tweet{
				ID: int64(b*100 + i), UserID: int64(i % 5),
				TS:  base + int64(b)*1_000_000_000 + int64(i)*1000,
				Lat: -33.8, Lon: 151.2,
			})
		}
		if err := s.Append(batch); err != nil {
			t.Fatal(err)
		}
	}
	// Query only the middle batch's range.
	q := Query{FromTS: base + 1_000_000_000, ToTS: base + 2_000_000_000}
	it := s.Scan(q)
	got, err := it.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 100 {
		t.Fatalf("got %d, want 100", len(got))
	}
	for _, tw := range got {
		if tw.TS < q.FromTS || tw.TS >= q.ToTS {
			t.Fatalf("tweet %d outside range", tw.ID)
		}
	}
	scanned, pruned := it.Stats()
	if scanned != 1 || pruned != 2 {
		t.Errorf("pushdown failed: scanned=%d pruned=%d, want 1/2", scanned, pruned)
	}
}

func TestBBoxQueryAndPruning(t *testing.T) {
	s := openStore(t)
	sydneyBatch := make([]tweet.Tweet, 100)
	perthBatch := make([]tweet.Tweet, 100)
	for i := 0; i < 100; i++ {
		sydneyBatch[i] = tweet.Tweet{ID: int64(i), UserID: 1, TS: int64(i + 1), Lat: -33.8, Lon: 151.2}
		perthBatch[i] = tweet.Tweet{ID: int64(100 + i), UserID: 2, TS: int64(i + 1), Lat: -31.9, Lon: 115.8}
	}
	if err := s.Append(sydneyBatch); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(perthBatch); err != nil {
		t.Fatal(err)
	}
	box := testx.BoundAround(geo.Point{Lat: -33.8, Lon: 151.2}, 100_000)
	it := s.Scan(Query{BBox: &box})
	got, err := it.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 100 {
		t.Fatalf("got %d, want 100", len(got))
	}
	if scanned, pruned := it.Stats(); scanned != 1 || pruned != 1 {
		t.Errorf("bbox pushdown failed: scanned=%d pruned=%d", scanned, pruned)
	}
}

func TestUserQueryAndPruning(t *testing.T) {
	s := openStore(t)
	// Users 0..9 in one segment, users 100..109 in another.
	var lo, hi []tweet.Tweet
	for i := 0; i < 200; i++ {
		lo = append(lo, tweet.Tweet{ID: int64(i), UserID: int64(i % 10), TS: int64(i + 1), Lat: -33, Lon: 151})
		hi = append(hi, tweet.Tweet{ID: int64(1000 + i), UserID: int64(100 + i%10), TS: int64(i + 1), Lat: -33, Lon: 151})
	}
	if err := s.Append(lo); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(hi); err != nil {
		t.Fatal(err)
	}
	uid := int64(105)
	it := s.Scan(Query{UserID: &uid})
	got, err := it.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 20 {
		t.Fatalf("got %d, want 20", len(got))
	}
	for _, tw := range got {
		if tw.UserID != uid {
			t.Fatalf("wrong user %d", tw.UserID)
		}
	}
	if scanned, pruned := it.Stats(); scanned != 1 || pruned != 1 {
		t.Errorf("user pushdown failed: scanned=%d pruned=%d", scanned, pruned)
	}
}

func TestCompactEstablishesGlobalOrder(t *testing.T) {
	s := openStore(t)
	// Append in time-interleaved batches so user order is split across
	// segments.
	all := makeTweets(7, 4000)
	for off := 0; off < len(all); off += 400 {
		if err := s.Append(all[off : off+400]); err != nil {
			t.Fatal(err)
		}
	}
	if sorted, err := s.IsSorted(); err != nil || sorted {
		t.Fatalf("pre-compact: sorted=%v err=%v (want unsorted)", sorted, err)
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if s.Count() != int64(len(all)) {
		t.Fatalf("post-compact Count = %d", s.Count())
	}
	sorted, err := s.IsSorted()
	if err != nil {
		t.Fatal(err)
	}
	if !sorted {
		t.Fatal("compact did not establish (user, time) order")
	}
	// Old segment files must be gone: only current catalogue + log.
	entries, err := os.ReadDir(s.Dir())
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{logName: true}
	for _, meta := range s.Segments() {
		want[meta.File] = true
	}
	for _, e := range entries {
		if !want[e.Name()] {
			t.Errorf("stale file %s after compaction", e.Name())
		}
	}
}

func TestCompactEmptyStore(t *testing.T) {
	s := openStore(t)
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
}

func TestSegmentSplitAtCap(t *testing.T) {
	s := openStore(t)
	n := DefaultSegmentRecords + 10
	tweets := make([]tweet.Tweet, n)
	for i := range tweets {
		tweets[i] = tweet.Tweet{ID: int64(i), UserID: int64(i), TS: int64(i + 1), Lat: -33, Lon: 151}
	}
	if err := s.Append(tweets); err != nil {
		t.Fatal(err)
	}
	segs := s.Segments()
	if len(segs) != 2 {
		t.Fatalf("got %d segments, want 2", len(segs))
	}
	if segs[0].Count != DefaultSegmentRecords || segs[1].Count != 10 {
		t.Errorf("segment sizes %d/%d", segs[0].Count, segs[1].Count)
	}
}

func TestVerifyDetectsPayloadCorruption(t *testing.T) {
	s := openStore(t)
	if err := s.Append(makeTweets(3, 1000)); err != nil {
		t.Fatal(err)
	}
	seg := s.Segments()[0]
	path := filepath.Join(s.Dir(), seg.File)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one payload byte.
	raw[headerSize+len(raw)/2] ^= 0xFF
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	err = s.Verify()
	if err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Errorf("corruption not detected: %v", err)
	}
	// Scans must surface the same failure.
	_, err = s.Scan(Query{}).ReadAll()
	if err == nil {
		t.Error("scan of corrupt segment should fail")
	}
}

func TestVerifyDetectsTruncation(t *testing.T) {
	s := openStore(t)
	if err := s.Append(makeTweets(4, 1000)); err != nil {
		t.Fatal(err)
	}
	seg := s.Segments()[0]
	path := filepath.Join(s.Dir(), seg.File)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw[:len(raw)*2/3], 0o644); err != nil {
		t.Fatal(err)
	}
	if err := s.Verify(); err == nil {
		t.Error("truncation not detected")
	}
}

// TestVerifyDetectsBadMagic covers the two header fields that identify
// the format: a foreign magic and a version this build does not read
// (version 1, the retired row-wise format, included) fail Verify and
// Scan with an error naming the segment file — never a panic, never a
// misdecoded payload.
func TestVerifyDetectsBadMagic(t *testing.T) {
	for _, tc := range []struct {
		name    string
		corrupt func(raw []byte)
		want    string
	}{
		{"magic", func(raw []byte) { copy(raw[0:4], "XXXX") }, "magic"},
		{"version 1", func(raw []byte) { binary.LittleEndian.PutUint16(raw[8:10], 1) }, "unsupported segment version 1"},
	} {
		s := openStore(t)
		if err := s.Append(makeTweets(5, 100)); err != nil {
			t.Fatal(err)
		}
		seg := s.Segments()[0]
		path := filepath.Join(s.Dir(), seg.File)
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		tc.corrupt(raw)
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		for what, err := range map[string]error{
			"Verify": s.Verify(),
			"Scan":   func() error { _, err := s.Scan(Query{}).ReadAll(); return err }(),
		} {
			if err == nil || !strings.Contains(err.Error(), tc.want) || !strings.Contains(err.Error(), seg.File) {
				t.Errorf("%s: %s = %v, want an error naming %s and %q", tc.name, what, err, seg.File, tc.want)
			}
		}
	}
}

func TestOpenRejectsMissingSegment(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Append(makeTweets(6, 100)); err != nil {
		t.Fatal(err)
	}
	seg := s.Segments()[0]
	if err := os.Remove(filepath.Join(dir, seg.File)); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil {
		t.Error("open should fail when the manifest references a missing segment")
	}
}

func TestOpenRejectsCorruptManifest(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, logName), []byte("{not a log}"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil {
		t.Error("open should fail on a corrupt catalogue log")
	}
	// The JSON catalogue of older builds is refused by name, not read.
	dir = t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, legacyManifest), []byte(`{"version":1}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil || !strings.Contains(err.Error(), legacyManifest) {
		t.Errorf("open over %s: %v, want an error naming it", legacyManifest, err)
	}
}

func TestScanResultsSortedWithinSegment(t *testing.T) {
	s := openStore(t)
	tweets := makeTweets(8, 2000)
	if err := s.Append(tweets); err != nil {
		t.Fatal(err)
	}
	got, err := s.Scan(Query{}).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	// A single Append of < segment cap records is one segment, so the whole
	// result must be (user, time) sorted.
	if !sort.IsSorted(tweet.ByUserTime(got)) {
		t.Error("single-segment scan should be (user, time) sorted")
	}
}

func TestQueryMatchSemantics(t *testing.T) {
	tw := tweet.Tweet{ID: 1, UserID: 5, TS: 100, Lat: -33, Lon: 151}
	box := testx.NewBBox(geo.Point{Lat: -34, Lon: 150}, geo.Point{Lat: -32, Lon: 152})
	uid5, uid6 := int64(5), int64(6)
	cases := []struct {
		q    Query
		want bool
	}{
		{Query{}, true},
		{Query{FromTS: 100}, true},  // inclusive lower bound
		{Query{FromTS: 101}, false}, // below range
		{Query{ToTS: 100}, false},   // exclusive upper bound
		{Query{ToTS: 101}, true},
		{Query{UserID: &uid5}, true},
		{Query{UserID: &uid6}, false},
		{Query{BBox: &box}, true},
	}
	blk, err := decodeColumnsV2(encodeColumnsV2(nil, tweet.BatchOf([]tweet.Tweet{tw}), 0, 1), 1)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range cases {
		if got := c.q.matchesRow(blk, 0); got != c.want {
			t.Errorf("case %d: matchesRow = %v, want %v", i, got, c.want)
		}
	}
	outside := testx.NewBBox(geo.Point{Lat: 0, Lon: 0}, geo.Point{Lat: 1, Lon: 1})
	if (Query{BBox: &outside}).matchesRow(blk, 0) {
		t.Error("point outside bbox should not match")
	}
}

func TestRemoveFileSafety(t *testing.T) {
	if err := removeFile(t.TempDir(), "../escape"); err == nil {
		t.Error("path traversal should be rejected")
	}
	if err := removeFile(t.TempDir(), "/etc/passwd"); err == nil {
		t.Error("absolute path should be rejected")
	}
}
