package tweet

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func validTweet() Tweet {
	return Tweet{ID: 1, UserID: 2, TS: 1380000000000, Lat: -33.8688, Lon: 151.2093}
}

func TestTweetAccessors(t *testing.T) {
	tw := validTweet()
	if got := tw.Time(); !got.Equal(time.UnixMilli(1380000000000)) {
		t.Errorf("Time() = %v", got)
	}
	if tw.Time().Location() != time.UTC {
		t.Error("Time() should be UTC")
	}
	p := tw.Point()
	if p.Lat != tw.Lat || p.Lon != tw.Lon {
		t.Error("Point() mismatch")
	}
}

func TestTweetValidate(t *testing.T) {
	if err := validTweet().Validate(); err != nil {
		t.Errorf("valid tweet rejected: %v", err)
	}
	bad := []Tweet{
		{ID: -1, UserID: 1, Lat: 0, Lon: 0},
		{ID: 1, UserID: -2, Lat: 0, Lon: 0},
		{ID: 1, UserID: 1, Lat: 95, Lon: 0},
		{ID: 1, UserID: 1, Lat: 0, Lon: 185},
	}
	for i, tw := range bad {
		if err := tw.Validate(); err == nil {
			t.Errorf("bad tweet %d accepted", i)
		}
	}
}

func TestSortOrders(t *testing.T) {
	tweets := []Tweet{
		{ID: 3, UserID: 2, TS: 100},
		{ID: 1, UserID: 1, TS: 300},
		{ID: 2, UserID: 1, TS: 200},
		{ID: 4, UserID: 2, TS: 100}, // TS tie, larger ID
	}
	byUser := append([]Tweet(nil), tweets...)
	sort.Sort(ByUserTime(byUser))
	wantIDs := []int64{2, 1, 3, 4}
	for i, id := range wantIDs {
		if byUser[i].ID != id {
			t.Fatalf("ByUserTime order: got %v", byUser)
		}
	}
	byTime := append([]Tweet(nil), tweets...)
	sort.Sort(ByTime(byTime))
	wantIDs = []int64{3, 4, 2, 1}
	for i, id := range wantIDs {
		if byTime[i].ID != id {
			t.Fatalf("ByTime order: got %v", byTime)
		}
	}
}

func TestNDJSONRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewNDJSONWriter(&buf)
	tweets := []Tweet{
		{ID: 1, UserID: 10, TS: 1000, Lat: -33.8688, Lon: 151.2093},
		{ID: 2, UserID: 10, TS: 2000, Lat: -37.8136, Lon: 144.9631},
		{ID: 3, UserID: 11, TS: 1500, Lat: -27.4698, Lon: 153.0251},
	}
	for _, tw := range tweets {
		if err := w.Write(tw); err != nil {
			t.Fatal(err)
		}
	}
	if w.Count() != 3 {
		t.Errorf("Count = %d", w.Count())
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := NewNDJSONReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(tweets) {
		t.Fatalf("got %d tweets", len(got))
	}
	for i := range tweets {
		if got[i] != tweets[i] {
			t.Errorf("tweet %d: %+v != %+v", i, got[i], tweets[i])
		}
	}
}

func TestNDJSONWriterRejectsInvalid(t *testing.T) {
	w := NewNDJSONWriter(io.Discard)
	if err := w.Write(Tweet{ID: -1}); err == nil {
		t.Error("invalid tweet should be rejected")
	}
}

func TestNDJSONReaderErrors(t *testing.T) {
	// Malformed JSON.
	r := NewNDJSONReader(strings.NewReader("{bad json\n"))
	if _, err := r.Read(); err == nil || errors.Is(err, io.EOF) {
		t.Error("malformed line should error")
	}
	// Valid JSON but invalid tweet.
	r = NewNDJSONReader(strings.NewReader(`{"id":1,"user":1,"ts":0,"lat":999,"lon":0}` + "\n"))
	if _, err := r.Read(); err == nil || errors.Is(err, io.EOF) {
		t.Error("invalid tweet should error")
	}
	if _, err := r.Read(); err != nil && !errors.Is(err, io.EOF) {
		// After the error the scanner continues; eventually EOF.
		t.Logf("post-error read: %v", err)
	}
	// Blank lines are skipped.
	r = NewNDJSONReader(strings.NewReader("\n\n" + `{"id":1,"user":1,"ts":5,"lat":0,"lon":0}` + "\n\n"))
	all, err := r.ReadAll()
	if err != nil || len(all) != 1 {
		t.Errorf("blank-line handling: %v, %v", all, err)
	}
	// Error line numbers point at the offending line.
	r = NewNDJSONReader(strings.NewReader(`{"id":1,"user":1,"ts":5,"lat":0,"lon":0}` + "\nnot json\n"))
	if _, err := r.Read(); err != nil {
		t.Fatal(err)
	}
	_, err = r.Read()
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Errorf("want line-2 error, got %v", err)
	}
}

// TestNDJSONReadBatch: ReadBatch fills batches of at most 8 192 rows, and
// a malformed line ends one early — the valid prefix comes back first,
// the line's error on the next call and every call after it.
func TestNDJSONReadBatch(t *testing.T) {
	var body strings.Builder
	for i := 1; i <= ndjsonBatchRows+3; i++ {
		fmt.Fprintf(&body, `{"id":%d,"user":1,"ts":%d,"lat":0,"lon":0}`+"\n", i, i)
	}
	body.WriteString("not json\n")
	fmt.Fprintf(&body, `{"id":%d,"user":1,"ts":1,"lat":0,"lon":0}`+"\n", ndjsonBatchRows+5)
	r := NewNDJSONReader(strings.NewReader(body.String()))
	b := &Batch{}
	for _, want := range []int{ndjsonBatchRows, 3} {
		if err := r.ReadBatch(b); err != nil || b.Len() != want {
			t.Fatalf("ReadBatch = %d rows, %v; want %d rows", b.Len(), err, want)
		}
	}
	if b.ID[2] != ndjsonBatchRows+3 {
		t.Fatalf("second batch ends at id %d, want %d", b.ID[2], ndjsonBatchRows+3)
	}
	for i := 0; i < 2; i++ {
		err := r.ReadBatch(b)
		if err == nil || errors.Is(err, io.EOF) || b.Len() != 0 || !strings.Contains(err.Error(), fmt.Sprintf("line %d", ndjsonBatchRows+4)) {
			t.Fatalf("after the valid prefix: %d rows, %v; want the malformed line's error and no rows", b.Len(), err)
		}
	}
	r = NewNDJSONReader(strings.NewReader(""))
	if err := r.ReadBatch(b); !errors.Is(err, io.EOF) || b.Len() != 0 {
		t.Fatalf("empty stream: %d rows, %v; want io.EOF", b.Len(), err)
	}
}

// TestBinaryQuantisationProperty: the storage quantisation holds every
// valid coordinate to within half a microdegree, and quantising twice is
// quantising once.
func TestBinaryQuantisationProperty(t *testing.T) {
	f := func(latSeed, lonSeed float64) bool {
		for _, deg := range []float64{mod(latSeed, 90), mod(lonSeed, 180)} {
			got := DegreesFromMicro(Microdegrees(deg))
			if abs(got-deg) > 5e-7+1e-12 || Microdegrees(got) != Microdegrees(deg) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func mod(v, m float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return math.Mod(v, m)
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
