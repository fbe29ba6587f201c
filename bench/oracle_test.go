package main

import (
	"encoding/json"
	"strings"
	"testing"
)

func TestCheckAnswerAgainstOracle(t *testing.T) {
	c := testCorpus(t, 9)
	posted := c.tweets[:c.upTo(60*24)]
	q := query{endpoint: "stats", from: c.hourTime(24), to: c.hourTime(24 * 30)}
	want, err := oracleAnswer(posted, q)
	if err != nil {
		t.Fatal(err)
	}
	// The oracle's count is the harness's own count of the window.
	if n := int64(c.upTo(24*30) - c.upTo(24)); want["tweets"] != n {
		t.Fatalf("oracle counts %v tweets, the window holds %d", want["tweets"], n)
	}
	want["cached"] = false
	reply, err := json.MarshalIndent(want, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := checkAnswer(posted, q, reply); err != nil {
		t.Errorf("the oracle's own answer fails the check: %v", err)
	}
	want["users"] = want["users"].(int64) + 1
	reply, _ = json.MarshalIndent(want, "", "  ")
	if err := checkAnswer(posted, q, reply); err == nil || !strings.Contains(err.Error(), `"users"`) {
		t.Errorf("one user too many passed the check: %v", err)
	}
}

func TestCachedFlag(t *testing.T) {
	hit := []byte("{\n  \"cached\": true,\n  \"tweets\": 3\n}\n")
	miss := []byte("{\n  \"cached\": false,\n  \"tweets\": 3\n}\n")
	if !isCached(hit) || isCached(miss) {
		t.Error("isCached misreads the flag")
	}
	if string(stripCached(hit)) != string(stripCached(miss)) {
		t.Error("stripCached leaves the two dispositions different")
	}
}
