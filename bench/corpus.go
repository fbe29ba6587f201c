package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"sort"
	"time"

	"geomob/internal/synth"
	"geomob/internal/tweet"
)

const (
	hourMs = int64(time.Hour / time.Millisecond)
	// frameRows caps one binary frame; a body is a stream of such frames.
	frameRows = 8192
)

// corpus is one generated feed: the tweets of synthetic users over the
// paper's collection window, in arrival (time) order, with the hour
// boundaries a collector would cut its posts at.
type corpus struct {
	tweets  []tweet.Tweet
	startMs int64 // collection window start, hour-aligned
	// hourEnd[h] is the index one past the last tweet of hour h (hours
	// counted from startMs), so hour h is tweets[hourEnd[h-1]:hourEnd[h]].
	hourEnd []int
}

// genCorpus generates a corpus of (all but) exactly `size` tweets from
// the seed pair (seed, seed+1).
//
// The synthesizer's per-user tweet counts are heavy-tailed, so the same
// user count gives 219 k tweets on one seed and 331 k on another, and
// every size-dependent metric would spread by that much between seeds.
// The harness therefore generates users in excess and keeps them, in
// user order, while they fit: each user's stream is independent of the
// others', so a subset of users is a corpus the synthesizer could have
// produced.
//
// Coordinates are snapped to the store's microdegree grid: the wire
// carries raw float bits but the store quantises, so an unsnapped feed
// would answer differently before and after a restart, and differently
// from the in-process oracle.
func genCorpus(size int, seed uint64) (*corpus, error) {
	// The mean is about 13 tweets per user and the thinnest seed seen at
	// these sizes gave 11; a user per 8 tweets leaves room below that, and
	// a seed thinner still gets twice the users until it fills.
	var cfg synth.Config
	var tw []tweet.Tweet
	for users := size/8 + 1; len(tw) < size-size/100; users *= 2 {
		cfg = synth.DefaultConfig(users, seed, seed+1)
		g, err := synth.NewGenerator(cfg)
		if err != nil {
			return nil, err
		}
		all, err := g.GenerateAll() // in (user, time) order
		if err != nil {
			return nil, err
		}
		tw = make([]tweet.Tweet, 0, size)
		for i := 0; i < len(all) && len(tw) < size; {
			j := i
			for j < len(all) && all[j].UserID == all[i].UserID {
				j++
			}
			if len(tw)+j-i <= size {
				tw = append(tw, all[i:j]...)
			}
			i = j
		}
	}
	for i := range tw {
		tw[i].Lat = tweet.DegreesFromMicro(tweet.Microdegrees(tw[i].Lat))
		tw[i].Lon = tweet.DegreesFromMicro(tweet.Microdegrees(tw[i].Lon))
	}
	sort.Sort(tweet.ByTime(tw))
	c := &corpus{tweets: tw, startMs: cfg.Start.UnixMilli()}
	hours := int((cfg.End.UnixMilli() - c.startMs) / hourMs)
	c.hourEnd = make([]int, hours)
	i := 0
	for h := range c.hourEnd {
		end := c.startMs + int64(h+1)*hourMs
		for i < len(tw) && tw[i].TS < end {
			i++
		}
		c.hourEnd[h] = i
	}
	if i != len(tw) {
		return nil, fmt.Errorf("corpus: %d tweets fall outside the collection window", len(tw)-i)
	}
	return c, nil
}

func (c *corpus) hours() int { return len(c.hourEnd) }

// upTo returns the index one past the last tweet before hour h.
func (c *corpus) upTo(h int) int {
	if h <= 0 {
		return 0
	}
	return c.hourEnd[min(h, len(c.hourEnd))-1]
}

// span returns the tweets of hours [from, to).
func (c *corpus) span(from, to int) []tweet.Tweet { return c.tweets[c.upTo(from):c.upTo(to)] }

// hourTime returns the instant hour h starts.
func (c *corpus) hourTime(h int) time.Time {
	return time.UnixMilli(c.startMs + int64(h)*hourMs).UTC()
}

// binaryBody encodes tweets as one application/x-geomob-batch body.
func binaryBody(tw []tweet.Tweet) ([]byte, error) {
	buf := make([]byte, 0, len(tw)*40+64*(len(tw)/frameRows+1))
	for len(tw) > 0 {
		n := min(len(tw), frameRows)
		var err error
		if buf, err = tweet.AppendFrame(buf, tweet.BatchOf(tw[:n])); err != nil {
			return nil, err
		}
		tw = tw[n:]
	}
	return buf, nil
}

// ndjsonBody encodes tweets as one NDJSON body.
func ndjsonBody(tw []tweet.Tweet) ([]byte, error) {
	var buf bytes.Buffer
	w := tweet.NewNDJSONWriter(&buf)
	for _, t := range tw {
		if err := w.Write(t); err != nil {
			return nil, err
		}
	}
	if err := w.Flush(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// body is one POST /v1/ingest payload and what the harness knows of it.
type body struct {
	data   []byte
	tweets int
}

// bodyDays is how much of the history one load body carries: a week,
// about 21 k tweets of C650k. That is the body size the issue designed
// for (a day of its 4.3 M-tweet corpus), and it keeps the two fsyncs of
// a store append, whose latency on the reference box flips between runs,
// below a tenth of a POST.
const bodyDays = 7

// historyBodies cuts the first `days` days into one body per bodyDays
// days (the last one shorter), with the given encoder.
func (c *corpus) historyBodies(days int, encode func([]tweet.Tweet) ([]byte, error)) ([]body, error) {
	var out []body
	for d := 0; d < days; d += bodyDays {
		tw := c.span(d*24, min(d+bodyDays, days)*24)
		if len(tw) == 0 {
			continue
		}
		data, err := encode(tw)
		if err != nil {
			return nil, err
		}
		out = append(out, body{data: data, tweets: len(tw)})
	}
	return out, nil
}

// inputHash fingerprints a sequence of request lines and bodies, so a
// test (and a reader of two result files) can tell two runs drove the
// same inputs.
type inputHash struct{ h [32]byte }

func (s *inputHash) add(line string, data []byte) {
	sum := sha256.New()
	sum.Write(s.h[:])
	sum.Write([]byte(line))
	sum.Write([]byte{0})
	sum.Write(data)
	copy(s.h[:], sum.Sum(nil))
}

func (s *inputHash) String() string { return fmt.Sprintf("%x", s.h[:8]) }
