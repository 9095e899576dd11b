package core

import (
	"context"
	"fmt"
	"path/filepath"
	"time"

	"f2c/internal/aggregate"
	"f2c/internal/cloud"
	"f2c/internal/fognode"
	"f2c/internal/metrics"
	"f2c/internal/protocol"
	"f2c/internal/sched"
	"f2c/internal/segment"
	"f2c/internal/sim"
	"f2c/internal/topology"
	"f2c/internal/transport"
	"f2c/internal/wal"
)

// MemberOptions configures one node of a hierarchy independently of
// how the hierarchy is hosted. Options.Member derives it for every
// node, whether NewSystem builds the simulated city, f2cd builds the
// single node of a daemon process, or citysim's live mode hosts the
// hierarchy over real sockets; a host sets only the Transport and
// Registry. A multi-process deployment therefore runs exactly the
// node the simulations and tests exercise.
type MemberOptions struct {
	// City names the deployment for description tags.
	City string
	// Clock provides time (daemons pass sim.WallClock{}).
	Clock sim.Clock
	// Transport delivers the node's upward and sibling traffic.
	Transport transport.Transport
	// Retention is the node's temporal-store window.
	Retention time.Duration
	// FlushInterval is the node's upward movement period.
	FlushInterval time.Duration
	// Codec compresses upward transfers.
	Codec aggregate.Codec
	// Dedup and Quality toggle the layer-1 acquisition phases; both
	// are forced off on layer-2 nodes (redundancy is eliminated and
	// quality checked once, at acquisition).
	Dedup, Quality bool
	// Registry receives node metrics; nil lets the node allocate a
	// private one.
	Registry *metrics.Registry
	// Siblings are the node's failover relay targets.
	Siblings []string
	// Tuning knobs, zero for defaults (see fognode.Config).
	PendingShards      int
	FlushWorkers       int
	MaxQueryPage       int
	MaxPendingReadings int
	RetryBase          time.Duration
	RetryMax           time.Duration
	FailoverAfter      int
	// Durability enables WAL + snapshot crash recovery.
	Durability *wal.Config
	// Storage backs the node's temporal store (the cloud's query
	// series) with the tiered segment engine instead of RAM.
	Storage *segment.Options
	// Overload enables the per-class weighted-fair admission scheduler
	// on the node's handler path (nil keeps admission ungated). Each
	// node builds its own scheduler instance from the shared options.
	Overload *sched.Options
	// DegradeToSummary folds buffer-trimmed readings into decomposable
	// window summaries forwarded upward instead of dropping them.
	DegradeToSummary bool
	// DegradeWindow is the summary window width (zero selects the
	// fognode default).
	DegradeWindow time.Duration
	// Adaptive enables RTT-driven flush batch/interval tuning (nil
	// keeps the fixed FlushInterval and unchunked batches).
	Adaptive *fognode.AdaptiveConfig
	// CloudRetention bounds the cloud archive's age (zero keeps it
	// forever). Ignored on fog nodes, which use Retention.
	CloudRetention time.Duration
	// AlertObserver sees every continuous-query alert push the node's
	// own subscriptions seal (see fognode.Config.AlertObserver).
	AlertObserver func(push protocol.AlertPush)
}

// Member derives one node's MemberOptions from the deployment-wide
// options: the shared knobs pass through, and the layer resolves the
// rest — retention (with the NodeRetention override), flush interval
// and failover siblings (the district's other sections for fog1, the
// other districts for fog2), the cloud's archive retention, and the
// node's write-ahead log under DataDir/<id> with its segment store in
// DataDir/<id>/store. Transport is left nil for the host to set.
func (o Options) Member(spec topology.NodeSpec) MemberOptions {
	o.applyDefaults()
	mo := MemberOptions{
		City:               o.City,
		Clock:              o.Clock,
		Codec:              o.Codec,
		Dedup:              o.Dedup,
		Quality:            o.Quality,
		Registry:           o.Registry,
		PendingShards:      o.PendingShards,
		FlushWorkers:       o.FlushWorkers,
		MaxQueryPage:       o.QueryPageLimit,
		MaxPendingReadings: o.MaxPendingReadings,
		RetryBase:          o.RetryBase,
		RetryMax:           o.RetryMax,
		FailoverAfter:      o.FailoverAfter,
		Overload:           o.Overload,
		DegradeToSummary:   o.DegradeToSummary,
		DegradeWindow:      o.DegradeWindow,
		Adaptive:           o.AdaptiveFlush,
		AlertObserver:      o.AlertObserver,
	}
	if o.DataDir != "" {
		// Node ids contain '/' and become nested directories.
		dir := filepath.Join(o.DataDir, spec.ID)
		mo.Durability = &wal.Config{Dir: dir, SnapshotEvery: o.SnapshotEvery, SyncEveryAppend: o.WALSyncEveryAppend}
		if o.SegmentStorage {
			mo.Storage = &segment.Options{
				Dir:             filepath.Join(dir, "store"),
				MemtableBytes:   o.MemtableBytes,
				Codec:           o.Codec,
				SyncEveryAppend: o.WALSyncEveryAppend,
			}
		}
	}
	retention := func(preset time.Duration) time.Duration {
		if r, ok := o.NodeRetention[spec.ID]; ok {
			return r
		}
		return preset
	}
	switch spec.Layer {
	case topology.LayerCloud:
		mo.CloudRetention = retention(o.CloudRetention)
	case topology.LayerFog2:
		mo.Retention = retention(o.Fog2Retention)
		mo.FlushInterval = o.Fog2FlushInterval
		// When its own WAN uplink is partitioned, a healthy district
		// relays the sealed batches to the cloud.
		for _, other := range o.Topology.Fog2Nodes() {
			if other.ID != spec.ID {
				mo.Siblings = append(mo.Siblings, other.ID)
			}
		}
	default:
		mo.Retention = retention(o.Fog1Retention)
		mo.FlushInterval = o.Fog1FlushInterval
		mo.Siblings = o.Topology.Neighbors(spec.ID)
	}
	return mo
}

// FogConfig assembles the fognode.Config for one fog node of either
// layer.
func FogConfig(spec topology.NodeSpec, o MemberOptions) fognode.Config {
	fog1 := spec.Layer == topology.LayerFog1
	return fognode.Config{
		Spec:               spec,
		City:               o.City,
		Clock:              o.Clock,
		Transport:          o.Transport,
		Retention:          o.Retention,
		FlushInterval:      o.FlushInterval,
		Codec:              o.Codec,
		Dedup:              o.Dedup && fog1,
		Quality:            o.Quality && fog1,
		Registry:           o.Registry,
		PendingShards:      o.PendingShards,
		FlushWorkers:       o.FlushWorkers,
		MaxQueryPage:       o.MaxQueryPage,
		MaxPendingReadings: o.MaxPendingReadings,
		Siblings:           o.Siblings,
		RetryBase:          o.RetryBase,
		RetryMax:           o.RetryMax,
		FailoverAfter:      o.FailoverAfter,
		Durability:         o.Durability,
		Storage:            o.Storage,
		Scheduler:          o.Overload,
		DegradeToSummary:   o.DegradeToSummary,
		DegradeWindow:      o.DegradeWindow,
		Adaptive:           o.Adaptive,
		AlertObserver:      o.AlertObserver,
	}
}

// CloudConfig assembles the cloud.Config for the hierarchy's root.
func CloudConfig(id string, o MemberOptions) cloud.Config {
	return cloud.Config{
		ID:           id,
		City:         o.City,
		Clock:        o.Clock,
		Registry:     o.Registry,
		Codec:        o.Codec,
		MaxQueryPage: o.MaxQueryPage,
		Durability:   o.Durability,
		Storage:      o.Storage,
		Scheduler:    o.Overload,
		Retention:    o.CloudRetention,
	}
}

// Node is one built member of a hierarchy: the cloud, or a fog node
// of either layer. Exactly one of Cloud and Fog is set.
type Node struct {
	Cloud *cloud.Node
	Fog   *fognode.Node
}

// NewNode builds the member spec names from its MemberOptions.
func NewNode(spec topology.NodeSpec, mo MemberOptions) (Node, error) {
	if spec.Layer == topology.LayerCloud {
		cl, err := cloud.New(CloudConfig(spec.ID, mo))
		if err != nil {
			return Node{}, fmt.Errorf("core: %s: %w", spec.ID, err)
		}
		return Node{Cloud: cl}, nil
	}
	n, err := fognode.New(FogConfig(spec, mo))
	if err != nil {
		return Node{}, fmt.Errorf("core: %s: %w", spec.ID, err)
	}
	return Node{Fog: n}, nil
}

// Handler returns the node's message handler.
func (n Node) Handler() transport.Handler {
	if n.Cloud != nil {
		return n.Cloud
	}
	return n.Fog
}

// Close shuts the node down gracefully: a fog node stops its flusher
// and drains upward, a durable cloud checkpoints and closes its
// journal.
func (n Node) Close(ctx context.Context) error {
	if n.Cloud != nil {
		return n.Cloud.Close()
	}
	return n.Fog.Close(ctx)
}
