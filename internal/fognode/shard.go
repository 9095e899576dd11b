package fognode

import (
	"sync"

	"f2c/internal/describe"
	"f2c/internal/model"
	"f2c/internal/shard"
)

// defaultPendingShards is the pending-buffer shard count used when
// Config.PendingShards is zero. Sixteen shards keep contention
// negligible for the catalog's ~21 sensor types while staying cheap
// to scan on flush.
const defaultPendingShards = 16

// pendingShard guards one hash slice of the per-type upward state and
// description tags, so concurrent Ingest calls on different sensor
// types proceed without contending on a node-wide lock. pending and
// degraded are a type's unsealed accumulators: fresh readings, and the
// per-window summaries of readings the MaxPendingReadings bound folded
// away under degrade-to-summary (plus summaries pushed up from
// children, awaiting re-emission). queue is the type's outbox: sealed
// items awaiting upward delivery, kind-ordered (see outbox.go).
type pendingShard struct {
	mu       sync.Mutex
	pending  map[string]*model.Batch
	degraded map[string]*degradeBuf
	queue    map[string][]sealed
	tags     map[string]describe.Tags
}

// newPendingShards allocates n shards rounded up to a power of two
// (n <= 0 selects the default).
func newPendingShards(n int) []pendingShard {
	if n <= 0 {
		n = defaultPendingShards
	}
	size := 1
	for size < n {
		size <<= 1
	}
	shards := make([]pendingShard, size)
	for i := range shards {
		shards[i].pending = make(map[string]*model.Batch)
		shards[i].degraded = make(map[string]*degradeBuf)
		shards[i].queue = make(map[string][]sealed)
		shards[i].tags = make(map[string]describe.Tags)
	}
	return shards
}

// shardFor returns the shard owning a type name.
func (n *Node) shardFor(typeName string) *pendingShard {
	return &n.shards[shard.FNV32a(typeName)&n.shardMask]
}
