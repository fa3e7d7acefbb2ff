// Direct-to-sharded streaming build: chunks are routed to one
// core.StreamBuilder per shard, each running on its own worker goroutine,
// so shard construction overlaps ingestion and the whole table is never
// materialized anywhere — not even partitioned staging tables. Range cut
// points come from the same row sample that seeded soft-FD detection, so
// routing is fixed before the first streamed row arrives.
package shard

import (
	"fmt"
	"sync"

	"github.com/coax-index/coax/internal/core"
	"github.com/coax-index/coax/internal/dataset"
	"github.com/coax-index/coax/internal/softfd"
)

// streamBatchRows is how many rows accumulate per shard before the batch is
// handed to that shard's build worker; bounded in-flight memory is
// (shards × channel depth × batch) rows.
const streamBatchRows = 1024

// StreamBuilder constructs a Sharded index from a stream of rows. Add may
// only be called from one goroutine; placement itself runs on per-shard
// workers concurrently with ingestion.
type StreamBuilder struct {
	s    *Sharded // routes rows now; its empty slots take the shards at Finish
	cols []string

	builders []*core.StreamBuilder
	batches  []chan dataset.Chunk // per shard; ownership transfers
	wg       sync.WaitGroup

	staging [][]float64 // per shard: partially filled batch
	n       int
}

// NewStreamBuilder prepares a direct-to-sharded streaming build. sample and
// fd play the same roles as in core.NewStreamBuilder; the range cut points
// are quantiles of the sample's partition column. totalHint ≥ 0 sizes per-shard preallocation; -1 when unknown.
func NewStreamBuilder(cols []string, fd softfd.Result, sample *dataset.Table, opt core.Options, so Options, totalHint int) (*StreamBuilder, error) {
	if sample.Len() == 0 {
		return nil, fmt.Errorf("shard: streaming build needs a non-empty sample")
	}
	s, err := newSharded(sample, fd, so)
	if err != nil {
		return nil, err
	}
	b := &StreamBuilder{s: s, cols: cols}
	k := len(s.shards)

	perShard := -1
	if totalHint >= 0 {
		perShard = totalHint/k + 1
	}
	// Each shard estimates its grid boundaries from its own slab of the
	// sample — a shard sees only a slice of the partition column, and
	// global quantiles would leave most of its grid cells empty. Shards
	// whose slab sampled too thin fall back to the full sample.
	slabs := make([]*dataset.Table, k)
	for i := range slabs {
		slabs[i] = dataset.NewTable(sample.Cols)
	}
	for i := 0; i < sample.Len(); i++ {
		row := sample.Row(i)
		slabs[s.routeRow(row)].Append(row)
	}
	minSlab := 2 * opt.PrimaryCellsPerDim
	if minSlab < 32 {
		minSlab = 32
	}
	b.builders = make([]*core.StreamBuilder, k)
	b.batches = make([]chan dataset.Chunk, k)
	b.staging = make([][]float64, k)
	for i := 0; i < k; i++ {
		slab := slabs[i]
		if slab.Len() < minSlab {
			slab = sample
		}
		sb, err := core.NewStreamBuilder(cols, fd, slab, opt, perShard)
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		b.builders[i] = sb
		b.batches[i] = make(chan dataset.Chunk, 2)
	}
	for i := 0; i < k; i++ {
		b.wg.Add(1)
		go func(i int) {
			defer b.wg.Done()
			for c := range b.batches[i] {
				for r := range c.Rows() {
					b.builders[i].Add(c.Row(r))
				}
			}
		}(i)
	}
	return b, nil
}

// Add routes one chunk of rows to the shard workers. The chunk buffer may
// be reused by the caller immediately: rows are copied into batch buffers
// before they cross a goroutine boundary.
func (b *StreamBuilder) Add(c dataset.Chunk) error {
	dims := b.s.dims
	if c.Cols != dims {
		return fmt.Errorf("shard: chunk has %d columns, builder has %d", c.Cols, dims)
	}
	if err := dataset.CheckFinite(b.cols, c.Data, b.n); err != nil {
		return fmt.Errorf("shard: %w", err)
	}
	for i := 0; i < c.Rows(); i++ {
		row := c.Row(i)
		si := b.s.routeRow(row)
		stage := b.staging[si]
		if stage == nil {
			stage = make([]float64, 0, streamBatchRows*dims)
		}
		stage = append(stage, row...)
		if len(stage) >= streamBatchRows*dims {
			b.batches[si] <- dataset.Chunk{Cols: dims, Data: stage}
			stage = nil
		}
		b.staging[si] = stage
	}
	b.n += c.Rows()
	return nil
}

// Rows reports how many rows have been routed so far.
func (b *StreamBuilder) Rows() int { return b.n }

// Abandon stops a build that will not finish — Add or the source failed:
// it closes every shard's batch channel and waits for the workers to exit.
// The builder must not be used afterwards.
func (b *StreamBuilder) Abandon() {
	for _, ch := range b.batches {
		close(ch)
	}
	b.wg.Wait()
}

// Finish flushes the remaining batches, waits for every shard worker, and
// assembles the serving Sharded index.
func (b *StreamBuilder) Finish() (*Sharded, error) {
	for si, stage := range b.staging {
		if len(stage) > 0 {
			b.batches[si] <- dataset.Chunk{Cols: b.s.dims, Data: stage}
			b.staging[si] = nil
		}
		close(b.batches[si])
	}
	b.wg.Wait()

	if b.n == 0 {
		return nil, fmt.Errorf("shard: cannot build over an empty stream")
	}
	for i, sb := range b.builders {
		idx, err := sb.Finish()
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		b.s.shards[i].idx = idx
		b.s.n.Add(int64(idx.Len()))
	}
	return b.s, nil
}
