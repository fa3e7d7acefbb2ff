package cluster

import (
	"fmt"

	"github.com/coax-index/coax/internal/core"
	"github.com/coax-index/coax/internal/dataset"
	"github.com/coax-index/coax/internal/shard"
)

// BuildShards builds the hosted ones of a cluster's K global shards, the K
// range slots of one shard build over t (shard.BuildSlots): one soft-FD
// detection and the engine's cut points on its range column (so.Column; -1
// picks it) over the whole table, one core.COAX per hosted slot. Each
// carries the build's column and cuts (shard.Sharded.Slot), which its node
// hands to routers. A global shard is one slot: so.NumShards and
// so.Workers are ignored. The build is deterministic, so every node
// building the same table cuts it identically without talking to anyone.
func BuildShards(t *dataset.Table, hosted []int, shards int, opt core.Options, so shard.Options) (map[int]*shard.Sharded, error) {
	so.NumShards = shards
	out, err := shard.BuildSlots(t, opt, so, hosted)
	if err != nil {
		return nil, fmt.Errorf("cluster: building %d global shards: %w", shards, err)
	}
	return out, nil
}
