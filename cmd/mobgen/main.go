// mobgen generates a synthetic geo-tagged tweet corpus — the stand-in for
// the paper's 6.3M-tweet collection — and writes it into a tweetdb store
// directory or to stdout as NDJSON or binary batch frames (the compact
// wire format POST /v1/ingest accepts with Content-Type
// application/x-geomob-batch).
//
// Usage:
//
//	mobgen -users 50000 -seed 42 -db /tmp/tweets.db
//	mobgen -users 1000 -ndjson > tweets.ndjson
//	mobgen -users 1000 -format binary > tweets.gmb
//	mobgen -users 473956 -db full.db        # paper-scale corpus
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"geomob/internal/synth"
	"geomob/internal/tweet"
	"geomob/internal/tweetdb"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("mobgen: ")

	var (
		users  = flag.Int("users", 50000, "number of synthetic users (paper: 473956)")
		seed1  = flag.Uint64("seed", 42, "first PCG seed")
		seed2  = flag.Uint64("seed2", 43, "second PCG seed")
		dbDir  = flag.String("db", "", "write into a tweetdb store at this directory")
		ndjson = flag.Bool("ndjson", false, "write NDJSON to stdout")
		format = flag.String("format", "", "stdout wire format: ndjson or binary (batch frames)")
		gamma  = flag.Float64("gamma", 2.0, "planted gravity distance exponent")
	)
	flag.Parse()

	if *ndjson && *format == "" {
		*format = "ndjson"
	}
	switch *format {
	case "", "ndjson", "binary":
	default:
		log.Fatalf("unknown -format %q (want ndjson or binary)", *format)
	}
	if *dbDir == "" && *format == "" {
		log.Fatal("choose an output: -db DIR, -ndjson or -format binary")
	}
	cfg := synth.DefaultConfig(*users, *seed1, *seed2)
	cfg.Gamma = *gamma
	gen, err := synth.NewGenerator(cfg)
	if err != nil {
		log.Fatal(err)
	}

	// Coordinates are emitted on the storage codec's microdegree grid
	// (~0.11 m, the precision real geo-tagged feeds carry anyway), so a
	// corpus round-trips every store in the pipeline bit-identically —
	// a service that rebuilds its in-memory state from segments after a
	// crash answers exactly what it answered before.
	quantised := func(emit func(tweet.Tweet) error) func(tweet.Tweet) error {
		return func(t tweet.Tweet) error {
			t.Lat = tweet.DegreesFromMicro(tweet.Microdegrees(t.Lat))
			t.Lon = tweet.DegreesFromMicro(tweet.Microdegrees(t.Lon))
			return emit(t)
		}
	}

	switch {
	case *format == "ndjson":
		w := tweet.NewNDJSONWriter(os.Stdout)
		n, err := gen.Generate(quantised(w.Write))
		if err != nil {
			log.Fatal(err)
		}
		if err := w.Flush(); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "mobgen: wrote %d tweets as NDJSON\n", n)
	case *format == "binary":
		// Frames of 8192 records: large enough to amortise the frame
		// header, small enough that an ingesting service never buffers
		// more than a few MB per frame.
		const frameRecords = 8192
		w := tweet.NewBatchWriter(os.Stdout)
		b := &tweet.Batch{}
		b.Grow(frameRecords)
		n, err := gen.Generate(quantised(func(t tweet.Tweet) error {
			b.Append(t)
			if b.Len() >= frameRecords {
				if err := w.Write(b); err != nil {
					return err
				}
				b.Reset()
			}
			return nil
		}))
		if err != nil {
			log.Fatal(err)
		}
		if b.Len() > 0 {
			if err := w.Write(b); err != nil {
				log.Fatal(err)
			}
		}
		fmt.Fprintf(os.Stderr, "mobgen: wrote %d tweets as binary batch frames\n", n)
	default:
		store, err := tweetdb.Open(*dbDir)
		if err != nil {
			log.Fatal(err)
		}
		// The generator emits in (user, time) order so segments stay
		// internally sorted; the final compaction establishes the global
		// order the analysis pipeline requires. Batches of 200 000 records
		// bound memory on corpora far larger than RAM.
		const segmentRecords = 200_000
		b := &tweet.Batch{}
		b.Grow(segmentRecords)
		n, err := gen.Generate(func(t tweet.Tweet) error {
			b.Append(t)
			if b.Len() < segmentRecords {
				return nil
			}
			err := store.AppendBatch(b)
			b.Reset()
			return err
		})
		if err != nil {
			log.Fatal(err)
		}
		if err := store.AppendBatch(b); err != nil {
			log.Fatal(err)
		}
		if err := store.Compact(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("mobgen: stored %d tweets in %s (%d segments)\n",
			n, *dbDir, len(store.Segments()))
	}
}
