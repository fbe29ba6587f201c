package main

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// TestParseConfig is the command-line contract: the mutual-exclusion
// rules, the values that used to be silently altered and are now refused
// with the flag named, and — verbatim — the command lines the frozen
// bench/ harness boots.
func TestParseConfig(t *testing.T) {
	for _, tc := range []struct {
		args string
		want string // substring of the error; empty means accepted
	}{
		// bench/proc.go: bootSingle, bootCluster's shards, its coordinator.
		{args: "-live -bucket 1h -db /d/db -snapshot-dir /d/snap"},
		{args: "-cluster-shard -bucket 1h -db /d/shard0"},
		{args: "-cluster-coordinator http://127.0.0.1:1,http://127.0.0.1:2 -replication 2 -wal-dir /d/wal"},
		// The default mode is the ring: no mode flag, snapshots allowed.
		{args: "-db /d/db"},
		{args: "-db /d/db -snapshot-dir /d/snap -snapshot-interval 30s"},
		{args: "-partitions 2 -db /d/db -replication 2 -wal-dir /d/wal -snapshot-dir /d/snap"},
		{args: "-version"},

		{args: "", want: "-db is required"},
		{args: "-cluster-shard", want: "-db is required"},
		{args: "-partitions 2", want: "-db is required"},
		{args: "-cluster-shard -partitions 2 -db /d", want: "mutually exclusive"},
		{args: "-cluster-shard -cluster-coordinator http://a -db /d", want: "mutually exclusive"},
		{args: "-cluster-coordinator http://a -partitions 2 -db /d", want: "mutually exclusive"},
		{args: "-cluster-coordinator , -db /d", want: "-cluster-coordinator lists no shard URLs"},
		{args: "-db /d -replication 2", want: "-replication needs"},
		{args: "-cluster-shard -db /d -replication 2", want: "-replication needs"},
		{args: "-db /d -wal-dir /w", want: "-wal-dir needs"},
		{args: "-db /d -snapshot-interval -1s -snapshot-dir /s", want: "-snapshot-interval must be"},
		{args: "-db /d -snapshot-interval 30s", want: "-snapshot-interval needs -snapshot-dir"},
		{args: "-cluster-coordinator http://a -snapshot-dir /s", want: "-snapshot-dir needs a local store"},

		{args: "-partitions -2 -db /d", want: "-partitions must be"},
		{args: "-partitions 64 -db /d"},
		{args: "-partitions 65 -db /d", want: "-partitions must be between 0 and 64"},
		{args: "-cluster-coordinator " + shardList(64)},
		{args: "-cluster-coordinator " + shardList(65), want: "lists 65 shard URLs"},
		{args: "-cluster-coordinator http://a,http://b -replication 0", want: "-replication must be"},
		{args: "-cluster-coordinator http://a,http://b -replication 5", want: "-replication must be"},
		{args: "-partitions 2 -db /d -replication 3", want: "-replication must be"},
		{args: "-db /d -max-ingest-bytes 0", want: "-max-ingest-bytes must be"},
	} {
		_, err := parseConfig(strings.Fields(tc.args))
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%q: rejected: %v", tc.args, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%q: error %v, want one naming %q", tc.args, err, tc.want)
		}
	}

	cfg, err := parseConfig(strings.Fields("-cluster-coordinator http://a,,http://b -replication 2 -wal-dir /w"))
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.shardURLs) != 2 || cfg.shardURLs[1] != "http://b" || !cfg.coordinator() || cfg.replication != 2 || cfg.walDir != "/w" {
		t.Errorf("coordinator command line parsed as %+v", cfg)
	}
	cfg, err = parseConfig(strings.Fields("-live -bucket 1h -db /d/db -snapshot-dir /d/snap"))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.coordinator() || cfg.shardNode || cfg.bucket != time.Hour || cfg.db != "/d/db" || cfg.snapDir != "/d/snap" || cfg.maxIngestBytes <= 0 {
		t.Errorf("single-node command line parsed as %+v", cfg)
	}
}

// shardList is a comma-separated -cluster-coordinator value naming n
// distinct shard URLs.
func shardList(n int) string {
	urls := make([]string, n)
	for i := range urls {
		urls[i] = fmt.Sprintf("http://127.0.0.1:%d", 9000+i)
	}
	return strings.Join(urls, ",")
}
