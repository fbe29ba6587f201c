package synth

import (
	"testing"

	"geomob/internal/tweet"
)

func TestGenerateRangeConcatEqualsGenerate(t *testing.T) {
	g, err := NewGenerator(testConfig(500))
	if err != nil {
		t.Fatal(err)
	}
	full, err := g.GenerateAll()
	if err != nil {
		t.Fatal(err)
	}
	var concat []tweet.Tweet
	for _, r := range [][2]int{{0, 100}, {100, 101}, {101, 350}, {350, 350}, {350, 500}} {
		if _, err := g.generateRange(r[0], r[1], func(tw tweet.Tweet) error {
			concat = append(concat, tw)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	if len(concat) != len(full) {
		t.Fatalf("ranges produced %d tweets, Generate %d", len(concat), len(full))
	}
	for i := range full {
		if concat[i] != full[i] {
			t.Fatalf("tweet %d differs: %+v vs %+v", i, concat[i], full[i])
		}
	}
}

func TestGenerateRangeRejectsBadBounds(t *testing.T) {
	g, err := NewGenerator(testConfig(10))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range [][2]int{{-1, 5}, {0, 11}, {7, 3}} {
		if _, err := g.generateRange(r[0], r[1], func(tweet.Tweet) error { return nil }); err == nil {
			t.Errorf("range [%d, %d) should be rejected", r[0], r[1])
		}
	}
}

func TestShardsConcatEqualsGenerate(t *testing.T) {
	g, err := NewGenerator(testConfig(300))
	if err != nil {
		t.Fatal(err)
	}
	full, err := g.GenerateAll()
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1, 3, 7, 1000} {
		shards, err := g.Shards(n)
		if err != nil {
			t.Fatal(err)
		}
		if len(shards) == 0 || len(shards) > n {
			t.Fatalf("n=%d: %d shards", n, len(shards))
		}
		var concat []tweet.Tweet
		for _, sh := range shards {
			if err := sh.Each(func(tw tweet.Tweet) error {
				concat = append(concat, tw)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
		}
		if len(concat) != len(full) {
			t.Fatalf("n=%d: shards produced %d tweets, Generate %d", n, len(concat), len(full))
		}
		for i := range full {
			if concat[i] != full[i] {
				t.Fatalf("n=%d: tweet %d differs", n, i)
			}
		}
	}
}
