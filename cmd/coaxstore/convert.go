package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"github.com/coax-index/coax/coax"
)

// cmdConvert rewrites a snapshot between format versions: v1/v2 (the
// streaming heap-decoded container) and v3 (the page-aligned memory-mapped
// container). Either direction works — the opened index is re-encoded in
// the target format, so a fleet can migrate to mapped serving with
// `convert -to 3` and roll back with `convert -to 2`. A single-index file
// is written as a one-shard index.
func cmdConvert(args []string) error {
	fs := flag.NewFlagSet("convert", flag.ExitOnError)
	var (
		in       = fs.String("in", "", "input snapshot path (any format version)")
		out      = fs.String("out", "", "output snapshot path")
		to       = fs.Int("to", 3, "target format version: 2|3")
		compress = fs.Bool("compress", false, "v3 only: store grid pages columnar-compressed, decoded lazily per page at query time")
	)
	fs.Parse(args)
	if *in == "" || *out == "" {
		return fmt.Errorf("convert needs -in and -out")
	}

	from, err := coax.PeekSnapshotVersion(*in)
	if err != nil {
		return err
	}
	t0 := time.Now()
	idx, sn, err := loadAnyIndex(*in)
	if err != nil {
		return err
	}
	defer sn.Close()
	openDur := time.Since(t0)

	t0 = time.Now()
	switch *to {
	case 3:
		err = coax.SaveShardedFileV3(*out, idx, *compress)
	case 2:
		err = coax.SaveShardedFile(*out, idx)
	default:
		return fmt.Errorf("unsupported target version %d (want 2 or 3)", *to)
	}
	if err != nil {
		return err
	}
	saveDur := time.Since(t0)

	inFi, err := os.Stat(*in)
	if err != nil {
		return err
	}
	outFi, err := os.Stat(*out)
	if err != nil {
		return err
	}
	fmt.Printf("converted %s (v%d, %d bytes) → %s (v%d, %d bytes)\n",
		*in, from, inFi.Size(), *out, *to, outFi.Size())
	fmt.Printf("opened in %v, wrote in %v\n", openDur.Round(time.Millisecond), saveDur.Round(time.Millisecond))
	return nil
}
