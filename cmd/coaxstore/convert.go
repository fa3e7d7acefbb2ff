package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"github.com/coax-index/coax/coax"
	"github.com/coax-index/coax/internal/mmapsnap"
	"github.com/coax-index/coax/internal/snapshot"
)

// cmdConvert rewrites a snapshot as format v3, the one format the library
// opens and serves. Its input is a v1/v2 file of an earlier release — the
// streaming container nothing else reads any more, decoded here once — or a
// v3 file, rewritten to add or drop -compress. A single-index file is
// written as a one-shard index.
func cmdConvert(args []string) error {
	fs := flag.NewFlagSet("convert", flag.ExitOnError)
	var (
		in       = fs.String("in", "", "input snapshot path: format v1, v2 or v3")
		out      = fs.String("out", "", "output path of the v3 snapshot")
		compress = fs.Bool("compress", false, "store grid pages columnar-compressed, decoded per page read at query time")
	)
	fs.Parse(args)
	if *in == "" || *out == "" {
		return fmt.Errorf("convert needs -in and -out")
	}

	t0 := time.Now()
	data, err := os.ReadFile(*in)
	if err != nil {
		return err
	}
	from, err := mmapsnap.PeekVersion(data)
	if err != nil {
		return fmt.Errorf("%s: %w", *in, err)
	}
	var idx *coax.Index
	if from == coax.SnapshotVersionV3 {
		// Pages are checked on read, and a corrupt one is skipped: check
		// them all first, or the copy would silently lose its rows.
		if err := mmapsnap.Verify(data); err != nil {
			return fmt.Errorf("%s: %w", *in, err)
		}
		sn, err := coax.OpenFile(*in)
		if err != nil {
			return err
		}
		defer sn.Close()
		idx, err = sn.Serving(0)
		if err != nil {
			return err
		}
	} else if idx, err = snapshot.Decode(data); err != nil {
		return fmt.Errorf("%s: %w", *in, err)
	}
	openDur := time.Since(t0)

	t0 = time.Now()
	if err := coax.SaveShardedFileV3(*out, idx, *compress); err != nil {
		return err
	}
	saveDur := time.Since(t0)
	outFi, err := os.Stat(*out)
	if err != nil {
		return err
	}
	fmt.Printf("converted %s (v%d, %d bytes) → %s (v%d, %d bytes)\n",
		*in, from, len(data), *out, coax.SnapshotVersionV3, outFi.Size())
	fmt.Printf("read in %v, wrote in %v\n", openDur.Round(time.Millisecond), saveDur.Round(time.Millisecond))
	return nil
}
