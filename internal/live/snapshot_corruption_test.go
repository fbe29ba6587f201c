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
	"runtime"
	"runtime/metrics"
	"strings"
	"testing"
	"time"

	"geomob/internal/census"
	"geomob/internal/core"
	"geomob/internal/ring"
	"geomob/internal/testx"
	"geomob/internal/tweet"
	"geomob/internal/tweetdb"
)

// snapFixture is a store + committed snapshot over a small corpus and
// everything a damage matrix needs: the shared shape (ring construction
// per trial is then cheap), the store, the snapshot directory, the
// pristine bytes of every snapshot file, and the cold reference
// results. The same contract as the WAL and store corruption matrices:
// damage anywhere must never panic and never change a /v1 answer —
// corruption only ever costs recovery time.
type snapFixture struct {
	shape *Shape
	store *tweetdb.Store
	dir   string
	files map[string][]byte // pristine content of every snapshot file
	man   *snapManifest
	reqs  []core.Request
	refs  []*core.Result
}

// newSnapFixture is the default fixture: hourly buckets over ten days,
// so the snapshot is ten day files of hour partials and day merges.
func newSnapFixture(t testing.TB) *snapFixture {
	t.Helper()
	return newSnapFixtureSpan(t, time.Hour, 10, 40)
}

// newSnapFixtureSpan builds a fixture at one bucket width over the users'
// records in the first days of the collection window. A stats query
// before the commit merges every closed rollup group, so the files carry
// merges.
func newSnapFixtureSpan(t testing.TB, width time.Duration, days, users int) *snapFixture {
	t.Helper()
	rng := rand.New(rand.NewSource(1234))
	all, sorted := snapCorpusDays(t, users, 77, days)
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
	if _, err := agg.Query(core.Request{Analyses: []core.Analysis{core.AnalysisStats}}); err != nil {
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
	if f.man, err = parseManifest(f.files[snapManifestName]); err != nil {
		t.Fatal(err)
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

// dayFile picks the smallest file holding at least two hour partials and
// a day merge with flow cells and two users — the densest damage matrix for the fewest
// recovery runs — and returns its name, bytes, decoded content and
// manifest entry.
func (f *snapFixture) dayFile(t testing.TB) (string, []byte, *snapFile, snapFileMeta) {
	t.Helper()
	var best snapFileMeta
	var bestFile *snapFile
	for _, fm := range f.man.Files {
		sf, err := f.shape.decodeSnapFile(f.files[fm.File])
		if err != nil {
			t.Fatal(err)
		}
		last := sf.parts[len(sf.parts)-1]
		if fm.Buckets < 2 || last.factor == 1 || len(last.part.flows) == 0 || len(last.part.users) < 2 {
			continue
		}
		if bestFile == nil || fm.Bytes < best.Bytes {
			best, bestFile = fm, sf
		}
	}
	if bestFile == nil {
		t.Fatal("fixture has no day file with a merge")
	}
	return best.File, f.files[best.File], bestFile, best
}

// patchSection returns a copy of a snapshot file with section sec of its
// part-th partial passed through fn and that section's CRC recomputed.
func patchSection(blob []byte, part, sec int, fn func(p []byte)) []byte {
	out := append([]byte(nil), blob...)
	off := snapHeader
	for k := 0; ; k++ {
		off += snapPartHeader
		for s := 0; s < snapSections; s++ {
			l := int(binary.LittleEndian.Uint32(out[off:]))
			if k == part && s == sec {
				p := out[off+8 : off+8+l]
				fn(p)
				binary.LittleEndian.PutUint32(out[off+4:], crc32.ChecksumIEEE(p))
				return out
			}
			off += 8 + l
		}
	}
}

// damagedShapes are the structured failure shapes a byte matrix can
// miss, each a whole file to put in place of a day file: a zeroed header,
// a version bump with a valid header CRC (forward-compatibility gate), a
// v1 bucket blob's magic and version, trailing garbage, and five files
// every CRC accepts — user rows out of order, an area id beyond its
// region set, a flow cell beyond it, a flow cell of a placement slot past
// the last, and two flow cells out of (placement slot, scale slot, from,
// to) order.
func (f *snapFixture) damagedShapes(t testing.TB, pristine []byte, sf *snapFile) map[string][]byte {
	t.Helper()
	merge := len(sf.parts) - 1
	shapes := map[string][]byte{}
	zeroed := append([]byte(nil), pristine...)
	clear(zeroed[:snapHeader])
	shapes["zeroed-header"] = zeroed
	for label, v := range map[string]uint16{"version-bump-valid-crc": snapVersion + 1, "v1-blob-valid-crc": 1} {
		d := append([]byte(nil), pristine...)
		binary.LittleEndian.PutUint16(d[4:], v)
		binary.LittleEndian.PutUint32(d[36:], crc32.ChecksumIEEE(d[:36]))
		shapes[label] = d
	}
	shapes["trailing-garbage"] = append(append([]byte(nil), pristine...), 0xDE, 0xAD)
	widest := 0
	for k := range sf.parts {
		if len(sf.parts[k].part.users) > len(sf.parts[widest].part.users) {
			widest = k
		}
	}
	if len(sf.parts[widest].part.users) < 2 {
		t.Fatal("no partial of the day file has two user rows")
	}
	shapes["rows-swapped-valid-crcs"] = testx.SwapSnapshotRows(pristine, widest, 0, len(sf.parts[widest].part.users)-1)
	shapes["area-out-of-range-valid-crcs"] = patchSection(pristine, 0, 1, func(p []byte) { p[0] = 0x7f })
	shapes["flow-out-of-range-valid-crcs"] = patchSection(pristine, merge, 5, func(p []byte) { binary.LittleEndian.PutUint16(p[3:], 0x7fff) })
	shapes["flow-pslot-out-of-range-valid-crcs"] = patchSection(pristine, merge, 5, func(p []byte) { p[0] = ring.Slots })
	if len(sf.parts[merge].part.flows) < 2 {
		t.Fatal("the day file's merge holds fewer than two flow cells")
	}
	shapes["flows-out-of-order-valid-crcs"] = patchSection(pristine, merge, 5, func(p []byte) {
		var first [11]byte
		copy(first[:], p[:11])
		copy(p, p[11:22])
		copy(p[11:], first[:])
	})
	for label, d := range shapes {
		if _, err := f.shape.decodeSnapFile(d); !errors.Is(err, errSnapshotCorrupt) {
			t.Errorf("decode of %s: %v, want errSnapshotCorrupt", label, err)
		}
	}
	return shapes
}

// manifestBuckets sums the buckets a manifest's files hold.
func manifestBuckets(man *snapManifest) int {
	n := 0
	for _, fm := range man.Files {
		n += fm.Buckets
	}
	return n
}

// assertHealed requires the recovered ring to answer bit-identically to
// the cold reference on every fixture request.
func (f *snapFixture) assertHealed(t *testing.T, agg *Aggregator, label string) {
	t.Helper()
	assertAggMatchesRefs(t, agg, f.reqs, f.refs, label)
}

// assertOneDayDegraded requires a recovery to have degraded exactly the
// damaged day file's buckets to a backfill.
func assertOneDayDegraded(t *testing.T, st RecoveryStats, fm snapFileMeta, total int, label string) {
	t.Helper()
	if st.FullRescan || st.SnapErrors != 1 || st.Backfilled != fm.Buckets || st.Restored != total-fm.Buckets {
		t.Fatalf("%s: stats %+v, want exactly the %d buckets of group %d degraded", label, st, fm.Buckets, fm.Group)
	}
}

// TestSnapshotBucketCorruptionMatrix flips every byte of a day file in
// turn: recovery must degrade exactly that day's buckets to a windowed
// cold backfill — never panic, never change an answer. The mirror of the
// WAL spool and store segment corruption matrices.
func TestSnapshotBucketCorruptionMatrix(t *testing.T) {
	f := newSnapFixture(t)
	name, pristine, _, fm := f.dayFile(t)
	total := manifestBuckets(f.man)
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
		assertOneDayDegraded(t, st, fm, total, fmt.Sprintf("flip at byte %d", p))
		// Answers are compared on a sample — the decode+backfill path runs
		// for every flip, the fold comparison is the expensive part.
		if p%13 == 0 {
			f.assertHealed(t, agg, "flipped day file")
		}
	}
	f.restore(t)
}

// TestSnapshotBucketTruncationMatrix truncates a day file at every
// length (the torn-write shape): same contract as the flip matrix.
func TestSnapshotBucketTruncationMatrix(t *testing.T) {
	f := newSnapFixture(t)
	name, pristine, _, fm := f.dayFile(t)
	total := manifestBuckets(f.man)
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
		assertOneDayDegraded(t, st, fm, total, fmt.Sprintf("truncate at %d", cut))
		if cut%13 == 0 {
			f.assertHealed(t, agg, "truncated day file")
		}
	}
	f.restore(t)
}

// TestSnapshotBucketDamageShapes covers the structured failure shapes a
// byte matrix can miss (damagedShapes) plus a missing file (a torn
// rename): each degrades exactly its day.
func TestSnapshotBucketDamageShapes(t *testing.T) {
	f := newSnapFixture(t)
	name, pristine, sf, fm := f.dayFile(t)
	total := manifestBuckets(f.man)
	path := filepath.Join(f.dir, name)
	shapes := map[string]func() error{
		"missing-file": func() error { return os.Remove(path) },
	}
	for label, d := range f.damagedShapes(t, pristine, sf) {
		shapes[label] = func() error { return os.WriteFile(path, d, 0o644) }
	}
	for label, damage := range shapes {
		f.restore(t)
		if err := damage(); err != nil {
			t.Fatalf("%s: apply: %v", label, err)
		}
		agg, st := f.recoverFresh(t, label)
		assertOneDayDegraded(t, st, fm, total, label)
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
// snapshotted": full cold backfill, identical answers. A version-2
// manifest — valid CRC, naming per-bucket blob files in the format that
// version carried, each present — takes the same path: a snapshot is a
// cache, so an older format costs a rescan, never a wrong answer.
func TestSnapshotManifestMissing(t *testing.T) {
	f := newSnapFixture(t)
	path := filepath.Join(f.dir, snapManifestName)
	type bucketMeta struct {
		Idx   int64  `json:"idx"`
		Rev   uint64 `json:"rev"`
		Count int    `json:"count"`
		File  string `json:"file"`
	}
	v2 := struct {
		Version   int          `json:"version"`
		ShapeHash string       `json:"shape_hash"`
		Width     int64        `json:"width_ms"`
		Covered   []string     `json:"covered_segments,omitempty"`
		Buckets   []bucketMeta `json:"buckets"`
		CRC       string       `json:"crc"`
	}{Version: 2, ShapeHash: f.man.ShapeHash, Width: f.man.Width, Covered: f.man.Covered}
	for _, fm := range f.man.Files {
		v2.Buckets = append(v2.Buckets, bucketMeta{Idx: fm.Group, Rev: 1, Count: int(fm.Records), File: fm.File})
	}
	unsigned, err := json.Marshal(&v2)
	if err != nil {
		t.Fatal(err)
	}
	v2.CRC = fmt.Sprintf("%08x", crc32.ChecksumIEEE(unsigned))
	v2Raw, err := json.MarshalIndent(&v2, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := parseManifest(v2Raw); err == nil || !strings.Contains(err.Error(), "version 2") {
		t.Fatalf("parse of a version-2 manifest: %v, want an error naming version 2", err)
	}
	for _, in := range []struct {
		label  string
		damage func() error
	}{
		{"missing manifest", func() error { return os.Remove(path) }},
		{"version-2 manifest", func() error { return os.WriteFile(path, v2Raw, 0o644) }},
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
	// And a decoded file from the foreign snapshot must not inject.
	name, raw, _, _ := f.dayFile(t)
	if _, err := other.decodeSnapFile(raw); err == nil {
		t.Fatalf("decode of foreign-shape file %s succeeded", name)
	}
}

// FuzzDecodeBucketSnapshot fuzzes the one decoder that reads snapshot
// files back from disk — concurrently, at boot — over one day file of
// hour partials and a day merge. Seeded with the damage the matrices
// above apply, it must never panic, never allocate more than the file's
// own size justifies (a header may claim four billion rows), and accept
// only canonical files: whatever decodes re-encodes to the very bytes it
// was decoded from.
func FuzzDecodeBucketSnapshot(f *testing.F) {
	fx := newSnapFixture(f)
	_, pristine, sf, _ := fx.dayFile(f)
	f.Add(pristine)
	f.Add(pristine[:len(pristine)/2])
	f.Add(pristine[:snapHeader])
	// A flipped CRC: the first part's users section checksum.
	crcFlip := append([]byte(nil), pristine...)
	crcFlip[snapHeader+snapPartHeader+4] ^= 0xA5
	f.Add(crcFlip)
	shapes := fx.damagedShapes(f, pristine, sf)
	for _, label := range []string{"zeroed-header", "v1-blob-valid-crc", "rows-swapped-valid-crcs", "area-out-of-range-valid-crcs", "flow-out-of-range-valid-crcs",
		"flow-pslot-out-of-range-valid-crcs", "flows-out-of-order-valid-crcs", "version-bump-valid-crc", "trailing-garbage"} {
		f.Add(shapes[label])
	}
	claim := append([]byte(nil), pristine...)
	binary.LittleEndian.PutUint32(claim[32:], math.MaxUint32)
	binary.LittleEndian.PutUint32(claim[36:], crc32.ChecksumIEEE(claim[:36]))
	f.Add(claim)
	rows := append([]byte(nil), pristine...)
	binary.LittleEndian.PutUint32(rows[snapHeader+48:], math.MaxUint32)
	binary.LittleEndian.PutUint32(rows[snapHeader+56:], crc32.ChecksumIEEE(rows[snapHeader:snapHeader+56]))
	f.Add(rows)
	for _, p := range []int{5, 29, len(pristine) - 1} {
		flipped := append([]byte(nil), pristine...)
		flipped[p] ^= 0xA5
		f.Add(flipped)
	}
	f.Add([]byte{})

	sh := fx.shape
	allocs := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	allocated := func() uint64 {
		metrics.Read(allocs)
		return allocs[0].Value.Uint64()
	}
	f.Fuzz(func(t *testing.T, blob []byte) {
		// A decoded partial holds at most four times its file bytes (136
		// heap bytes a user row at four slots, a row at least 44 file
		// bytes); the slack covers the error message and the test runtime.
		limit := uint64(4*len(blob) + 1<<16)
		before := allocated()
		got, err := sh.decodeSnapFile(blob)
		if used := allocated() - before; used > limit {
			// The runtime books small allocations when a cached span is
			// swapped out, so one decode can be charged for what earlier
			// code left in the span. A real excess repeats once a GC has
			// flushed every cache.
			runtime.GC()
			before = allocated()
			sh.decodeSnapFile(blob)
			if used = allocated() - before; used > limit {
				t.Fatalf("decoding %d bytes allocated %d", len(blob), used)
			}
		}
		if err != nil {
			if !errors.Is(err, errSnapshotCorrupt) {
				t.Fatalf("decode error %v does not wrap errSnapshotCorrupt", err)
			}
			return
		}
		if again := sh.encodeSnapFile(got); !bytes.Equal(again, blob) {
			t.Fatal("an accepted file does not re-encode to itself")
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
