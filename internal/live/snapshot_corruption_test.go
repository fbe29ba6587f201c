package live

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime/metrics"
	"strings"
	"testing"
	"time"

	"geomob/internal/census"
	"geomob/internal/core"
	"geomob/internal/testx"
	"geomob/internal/tweet"
	"geomob/internal/tweetdb"
)

// snapCorruptionFixture builds a store + committed snapshot over a small
// corpus and returns everything a damage matrix needs: the shared shape
// (ring construction per trial is then cheap), the store, the snapshot
// directory, the pristine bytes of every snapshot file, and the cold
// reference results. The same contract as the WAL and store corruption
// matrices: damage anywhere must never panic and never change a /v1
// answer — corruption only ever costs recovery time.
type snapFixture struct {
	shape *Shape
	store *tweetdb.Store
	dir   string
	files map[string][]byte // pristine content of every snapshot file
	reqs  []core.Request
	refs  []*core.Result
}

func newSnapFixture(t testing.TB) *snapFixture {
	t.Helper()
	return newSnapFixtureWidth(t, 31*24*time.Hour)
}

func newSnapFixtureWidth(t testing.TB, width time.Duration) *snapFixture {
	t.Helper()
	rng := rand.New(rand.NewSource(1234))
	all, sorted := snapCorpus(t, 120, 77)
	root := t.TempDir()
	store, err := tweetdb.Open(filepath.Join(root, "store"))
	if err != nil {
		t.Fatal(err)
	}
	sh, err := NewShape(Options{BucketWidth: width})
	if err != nil {
		t.Fatal(err)
	}
	agg := sh.NewAggregator()
	ing, err := NewIngestor(store, agg, 512)
	if err != nil {
		t.Fatal(err)
	}
	snapDir := filepath.Join(root, "snap")
	snaps, err := OpenSnapshotStore(snapDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, batch := range randomBatches(rng, all, 5) {
		if err := ing.IngestBatch(tweet.BatchOf(batch)); err != nil {
			t.Fatal(err)
		}
	}
	if err := ing.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := ing.Snapshot(snaps); err != nil {
		t.Fatal(err)
	}
	f := &snapFixture{shape: sh, store: store, dir: snapDir, files: map[string][]byte{}}
	entries, err := os.ReadDir(snapDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		raw, err := os.ReadFile(filepath.Join(snapDir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		f.files[e.Name()] = raw
	}
	// Per-analysis requests: the tiny corpus can't support the full
	// study's model fits, but stats + population + national flows touch
	// every fold column (sums, cells, marks, transitions).
	f.reqs = []core.Request{
		{Analyses: []core.Analysis{core.AnalysisStats}},
		{Analyses: []core.Analysis{core.AnalysisPopulation}},
		{Analyses: []core.Analysis{core.AnalysisFlows}, Scales: []census.Scale{census.ScaleNational}},
	}
	f.refs = snapRefs(t, sorted, f.reqs)
	return f
}

// restore rewrites every snapshot file to its pristine content.
func (f *snapFixture) restore(t *testing.T) {
	t.Helper()
	entries, err := os.ReadDir(f.dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if _, ok := f.files[e.Name()]; !ok {
			os.Remove(filepath.Join(f.dir, e.Name()))
		}
	}
	for name, raw := range f.files {
		if err := os.WriteFile(filepath.Join(f.dir, name), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// recoverFresh boots a fresh ring over the (possibly damaged) snapshot
// dir and returns the ring plus stats. Any panic fails the matrix.
func (f *snapFixture) recoverFresh(t *testing.T, label string) (*Aggregator, RecoveryStats) {
	t.Helper()
	snaps, err := OpenSnapshotStore(f.dir)
	if err != nil {
		t.Fatalf("%s: open snapshot store: %v", label, err)
	}
	agg := f.shape.NewAggregator()
	st, err := Recover(agg, f.store, snaps, RecoverOpts{})
	if err != nil {
		t.Fatalf("%s: recover: %v", label, err)
	}
	return agg, st
}

// bucketFile picks the smallest bucket blob — the densest damage matrix
// for the fewest recovery runs.
func (f *snapFixture) bucketFile(t testing.TB) (string, []byte) {
	t.Helper()
	name, size := "", 0
	for n, raw := range f.files {
		if n == snapManifestName {
			continue
		}
		if name == "" || len(raw) < size {
			name, size = n, len(raw)
		}
	}
	if name == "" {
		t.Fatal("fixture has no bucket files")
	}
	return name, f.files[name]
}

// assertHealed requires the recovered ring to answer bit-identically to
// the cold reference on every fixture request.
func (f *snapFixture) assertHealed(t *testing.T, agg *Aggregator, label string) {
	t.Helper()
	assertAggMatchesRefs(t, agg, f.reqs, f.refs, label)
}

// TestSnapshotBucketCorruptionMatrix flips every byte of a bucket blob
// in turn: recovery must degrade exactly that bucket to a windowed cold
// backfill — never panic, never change an answer. The mirror of the WAL
// spool and store segment corruption matrices.
func TestSnapshotBucketCorruptionMatrix(t *testing.T) {
	f := newSnapFixture(t)
	name, pristine := f.bucketFile(t)
	path := filepath.Join(f.dir, name)
	stride := 1
	if testing.Short() {
		stride = 17
	}
	for p := 0; p < len(pristine); p += stride {
		damaged := append([]byte(nil), pristine...)
		damaged[p] ^= 0xA5
		if err := os.WriteFile(path, damaged, 0o644); err != nil {
			t.Fatal(err)
		}
		agg, st := f.recoverFresh(t, "flip")
		if st.FullRescan {
			t.Fatalf("flip at byte %d: one damaged bucket caused a full rescan", p)
		}
		if st.SnapErrors != 1 || st.Backfilled != 1 {
			t.Fatalf("flip at byte %d: stats %+v, want exactly one bucket degraded", p, st)
		}
		// Answers are compared on a sample — the decode+backfill path runs
		// for every flip, the fold comparison is the expensive part.
		if p%13 == 0 {
			f.assertHealed(t, agg, "flipped bucket")
		}
	}
	f.restore(t)
}

// TestSnapshotBucketTruncationMatrix truncates the blob at every length
// (the torn-write shape): same contract as the flip matrix.
func TestSnapshotBucketTruncationMatrix(t *testing.T) {
	f := newSnapFixture(t)
	name, pristine := f.bucketFile(t)
	path := filepath.Join(f.dir, name)
	stride := 1
	if testing.Short() {
		stride = 17
	}
	for cut := 0; cut < len(pristine); cut += stride {
		if err := os.WriteFile(path, pristine[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		agg, st := f.recoverFresh(t, "truncate")
		if st.FullRescan || st.SnapErrors != 1 || st.Backfilled != 1 {
			t.Fatalf("truncate at %d: stats %+v, want exactly one bucket degraded", cut, st)
		}
		if cut%13 == 0 {
			f.assertHealed(t, agg, "truncated bucket")
		}
	}
	f.restore(t)
}

// TestSnapshotBucketDamageShapes covers the structured failure shapes a
// byte matrix can miss: a zeroed header, a version bump with a *valid*
// header CRC (forward-compatibility gate), a missing file (torn rename),
// trailing garbage, and rows out of canonical order under valid CRCs.
func TestSnapshotBucketDamageShapes(t *testing.T) {
	f := newSnapFixture(t)
	name, pristine := f.bucketFile(t)
	path := filepath.Join(f.dir, name)

	shapes := map[string]func() error{
		"zeroed-header": func() error {
			damaged := append([]byte(nil), pristine...)
			for i := 0; i < snapHeader; i++ {
				damaged[i] = 0
			}
			return os.WriteFile(path, damaged, 0o644)
		},
		"version-bump-valid-crc": func() error {
			damaged := append([]byte(nil), pristine...)
			binary.LittleEndian.PutUint16(damaged[4:], snapVersion+1)
			binary.LittleEndian.PutUint32(damaged[36:], crc32.ChecksumIEEE(damaged[:36]))
			return os.WriteFile(path, damaged, 0o644)
		},
		"missing-file": func() error {
			return os.Remove(path)
		},
		"trailing-garbage": func() error {
			damaged := append(append([]byte(nil), pristine...), 0xDE, 0xAD)
			return os.WriteFile(path, damaged, 0o644)
		},
		// Every CRC holds, every row is in bounds, but the rows are not in
		// the order a restored bucket is folded in: the decoder must check
		// it, because nothing after it does.
		"rows-swapped-valid-crcs": func() error {
			n := int(binary.LittleEndian.Uint32(pristine[32:]))
			damaged := testx.SwapSnapshotRows(pristine, 0, n-1)
			if _, err := f.shape.decodeBucketSnapshot(damaged); !errors.Is(err, errSnapshotCorrupt) {
				t.Errorf("decode of a blob with rows 0 and %d swapped: %v, want errSnapshotCorrupt", n-1, err)
			}
			return os.WriteFile(path, damaged, 0o644)
		},
	}
	for label, damage := range shapes {
		f.restore(t)
		if err := damage(); err != nil {
			t.Fatalf("%s: apply: %v", label, err)
		}
		agg, st := f.recoverFresh(t, label)
		if st.FullRescan || st.SnapErrors != 1 || st.Backfilled != 1 {
			t.Fatalf("%s: stats %+v, want exactly one bucket degraded", label, st)
		}
		f.assertHealed(t, agg, label)
	}
}

// TestSnapshotManifestCorruptionMatrix flips every byte of the manifest:
// either the flip is immaterial (whitespace — the parsed manifest and
// its checksum are unchanged) and recovery proceeds normally, or the
// manifest is rejected and recovery falls back to a full cold rescan.
// Both paths must yield bit-identical answers.
func TestSnapshotManifestCorruptionMatrix(t *testing.T) {
	f := newSnapFixture(t)
	pristine := f.files[snapManifestName]
	path := filepath.Join(f.dir, snapManifestName)
	stride := 1
	if testing.Short() {
		stride = 17
	}
	for p := 0; p < len(pristine); p += stride {
		damaged := append([]byte(nil), pristine...)
		damaged[p] ^= 0xA5
		if err := os.WriteFile(path, damaged, 0o644); err != nil {
			t.Fatal(err)
		}
		agg, st := f.recoverFresh(t, "manifest flip")
		if !st.FullRescan && (st.SnapErrors != 0 || st.Backfilled != 0) {
			t.Fatalf("manifest flip at byte %d: partial degradation %+v — manifest damage must be all or nothing", p, st)
		}
		if p%13 == 0 {
			f.assertHealed(t, agg, "manifest flip")
		}
	}
	f.restore(t)
}

// TestSnapshotManifestMissing treats an absent manifest as "never
// snapshotted": full cold backfill, identical answers. A version-1
// manifest — valid CRC, every bucket file intact, and the has_floor and
// floor_idx fields that version carried — takes the same path: a
// snapshot is a cache, so an older format costs a rescan, never a
// wrong answer.
func TestSnapshotManifestMissing(t *testing.T) {
	f := newSnapFixture(t)
	path := filepath.Join(f.dir, snapManifestName)
	cur, err := parseManifest(f.files[snapManifestName])
	if err != nil {
		t.Fatal(err)
	}
	v1 := struct {
		Version   int              `json:"version"`
		ShapeHash string           `json:"shape_hash"`
		Width     int64            `json:"width_ms"`
		Floored   bool             `json:"has_floor"`
		Floor     int64            `json:"floor_idx"`
		Covered   []string         `json:"covered_segments,omitempty"`
		Buckets   []snapBucketMeta `json:"buckets"`
		CRC       string           `json:"crc"`
	}{Version: 1, ShapeHash: cur.ShapeHash, Width: cur.Width, Covered: cur.Covered, Buckets: cur.Buckets}
	unsigned, err := json.Marshal(&v1)
	if err != nil {
		t.Fatal(err)
	}
	v1.CRC = fmt.Sprintf("%08x", crc32.ChecksumIEEE(unsigned))
	v1Raw, err := json.MarshalIndent(&v1, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := parseManifest(v1Raw); err == nil || !strings.Contains(err.Error(), "version 1") {
		t.Fatalf("parse of a version-1 manifest: %v, want an error naming version 1", err)
	}
	for _, in := range []struct {
		label  string
		damage func() error
	}{
		{"missing manifest", func() error { return os.Remove(path) }},
		{"version-1 manifest", func() error { return os.WriteFile(path, v1Raw, 0o644) }},
	} {
		f.restore(t)
		if err := in.damage(); err != nil {
			t.Fatalf("%s: apply: %v", in.label, err)
		}
		agg, st := f.recoverFresh(t, in.label)
		if !st.FullRescan {
			t.Fatalf("%s did not trigger a full rescan: %+v", in.label, st)
		}
		f.assertHealed(t, agg, in.label)
	}
}

// TestSnapshotStaleAfterCompaction: a store compaction rewrites the
// segment catalogue, so the manifest's covered segments vanish and the
// tail can no longer be identified. The snapshot must be abandoned
// wholesale — a full rescan with identical answers, never a silent
// double count.
func TestSnapshotStaleAfterCompaction(t *testing.T) {
	f := newSnapFixture(t)
	if err := f.store.Compact(); err != nil {
		t.Fatal(err)
	}
	agg, st := f.recoverFresh(t, "post-compaction")
	if !st.FullRescan {
		t.Fatalf("compaction did not invalidate the snapshot: %+v", st)
	}
	f.assertHealed(t, agg, "post-compaction")
}

// TestSnapshotForeignShapeRejected: a snapshot written by a ring with a
// different bucket width must be rejected outright (shape hash /
// width gate), falling back to a full rescan.
func TestSnapshotForeignShapeRejected(t *testing.T) {
	f := newSnapFixture(t)
	other, err := NewShape(Options{BucketWidth: 6 * time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	snaps, err := OpenSnapshotStore(f.dir)
	if err != nil {
		t.Fatal(err)
	}
	agg := other.NewAggregator()
	st, err := Recover(agg, f.store, snaps, RecoverOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if !st.FullRescan {
		t.Fatalf("foreign-shape snapshot was accepted: %+v", st)
	}
	// And a decoded blob from the foreign snapshot must not inject.
	name, raw := f.bucketFile(t)
	if _, err := other.decodeBucketSnapshot(raw); err == nil {
		t.Fatalf("decode of foreign-shape blob %s succeeded", name)
	}
}

// FuzzDecodeBucketSnapshot fuzzes the one decoder that reads bucket blobs
// back from disk — concurrently, at boot. Seeded
// with the damage the matrices above apply, it must never panic, never
// allocate more than the blob's own size justifies (a header may claim
// four billion rows), and accept only canonical blobs: whatever decodes
// re-encodes to the very bytes it was decoded from.
func FuzzDecodeBucketSnapshot(f *testing.F) {
	fx := newSnapFixture(f)
	_, pristine := fx.bucketFile(f)
	f.Add(pristine)
	for _, p := range []int{0, 5, 17, 33, 37, snapHeader + 2, snapHeader + 9, snapHeader + 40, len(pristine) / 2, len(pristine) - 1} {
		flipped := append([]byte(nil), pristine...)
		flipped[p] ^= 0xA5
		f.Add(flipped)
	}
	f.Add(pristine[:snapHeader])
	f.Add(pristine[:len(pristine)/2])
	f.Add(testx.SwapSnapshotRows(pristine, 0, 1))
	claim := append([]byte(nil), pristine...)
	binary.LittleEndian.PutUint32(claim[32:], math.MaxUint32)
	binary.LittleEndian.PutUint32(claim[36:], crc32.ChecksumIEEE(claim[:36]))
	f.Add(claim)
	f.Add([]byte{})

	sh := fx.shape
	allocs := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	allocated := func() uint64 {
		metrics.Read(allocs)
		return allocs[0].Value.Uint64()
	}
	f.Fuzz(func(t *testing.T, blob []byte) {
		before := allocated()
		bs, err := sh.decodeBucketSnapshot(blob)
		// A decoded bucket is as large as its blob (80 bytes a row at four
		// slots); the slack covers the error message and the test runtime.
		if got, limit := allocated()-before, uint64(4*len(blob)+1<<16); got > limit {
			t.Fatalf("decoding %d bytes allocated %d", len(blob), got)
		}
		if err != nil {
			if !errors.Is(err, errSnapshotCorrupt) {
				t.Fatalf("decode error %v does not wrap errSnapshotCorrupt", err)
			}
			return
		}
		cb := capturedBucket{idx: bs.Idx, tweets: bs.tweets, assign: bs.assign, vecs: bs.vecs, cells: bs.cells}
		if again := encodeBucketBlob(sh.hash, sh.width, sh.slots, &cb); !bytes.Equal(again, blob) {
			t.Fatal("an accepted blob does not re-encode to itself")
		}
	})
}

// FuzzSnapshotManifest runs the manifest parse — JSON, version and CRC —
// over arbitrary file bytes, seeded with the flips of
// TestSnapshotManifestCorruptionMatrix. It must never panic, never
// allocate more than the bytes justify, reject anything with a wrapped
// errSnapshotCorrupt, and whatever it accepts must survive the commit
// path's own encoding: written as a commit writes it, it parses back to
// the same manifest.
func FuzzSnapshotManifest(f *testing.F) {
	fx := newSnapFixture(f)
	pristine := fx.files[snapManifestName]
	f.Add(pristine)
	for _, p := range []int{0, 1, 13, 29, 61, len(pristine) / 3, len(pristine) / 2, len(pristine) - 12, len(pristine) - 1} {
		flipped := append([]byte(nil), pristine...)
		flipped[p] ^= 0xA5
		f.Add(flipped)
	}
	f.Add(pristine[:len(pristine)/2])
	f.Add([]byte(`{"version":1,"buckets":null,"crc":""}`))
	f.Add([]byte{})

	// The first parse in a process fills encoding/json's per-type caches;
	// take that out of the measured calls.
	if _, err := parseManifest(pristine); err != nil {
		f.Fatal(err)
	}
	allocs := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	allocated := func() uint64 {
		metrics.Read(allocs)
		return allocs[0].Value.Uint64()
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		before := allocated()
		man, err := parseManifest(raw)
		// JSON carries no length prefixes to trust, so this bound only
		// catches a blow-up; the slack covers invalid UTF-8 widening to
		// U+FFFD, the error message and the fuzzing engine's own
		// allocations in this process.
		if got, limit := allocated()-before, uint64(64*len(raw)+1<<20); got > limit {
			t.Fatalf("parsing %d bytes allocated %d", len(raw), got)
		}
		if err != nil {
			if !errors.Is(err, errSnapshotCorrupt) {
				t.Fatalf("parse error %v does not wrap errSnapshotCorrupt", err)
			}
			return
		}
		again, err := json.MarshalIndent(man, "", "  ")
		if err != nil {
			t.Fatalf("an accepted manifest does not marshal: %v", err)
		}
		back, err := parseManifest(again)
		if err != nil {
			t.Fatalf("an accepted manifest does not parse back: %v", err)
		}
		if !reflect.DeepEqual(back, man) {
			t.Fatalf("manifest %+v parses back as %+v", man, back)
		}
	})
}
