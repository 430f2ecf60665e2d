package graph

// A shard is a row range of the one CSR. The graph stores a single
// label-bucketed snapshot; SetShards only records how many contiguous
// row ranges the frontier-exchange kernels (internal/rspq/shardbfs.go)
// split their SEARCH STATE into. Each pinned View carries that number,
// and the kernels derive the ranges from the view's own vertex count —
// there is no partitioned copy of the adjacency to build, merge or keep
// current.

// MaxShards bounds the configurable shard count: the exchange keeps a
// K×K outbox matrix per search, so K must stay small.
const MaxShards = 64

// SetShards configures the shard count K carried by every view pinned
// from now on; k <= 0 disables sharding (the default) and k above
// MaxShards is capped. Like every other structural call, SetShards must
// not race queries.
func (g *Graph) SetShards(k int) {
	k = min(max(k, 0), MaxShards)
	if k != g.shardCount {
		g.shardCount = k
		g.view, g.viewLog = nil, nil
	}
}

// ShardCount returns the configured shard count (0 = unsharded).
func (g *Graph) ShardCount() int { return g.shardCount }
