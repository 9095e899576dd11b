package main

import (
	"context"
	"errors"
	"fmt"
	"log"

	"f2c/internal/core"
	"f2c/internal/cq"
	"f2c/internal/transport"
)

// runAllInOne hosts the entire deployment inside one process: every
// fog node over the in-process simulated network, the cloud, and a
// single tcpnet endpoint that routes each message to the node its To
// field names, so f2cload and f2cctl work unchanged against any node.
// The open-data API gets its own HTTP listener, as on a cloud daemon —
// a one-command demo city:
//
//	f2cd -all-in-one -listen :9000 -opendata-listen :8080
//	f2cload -node localhost:9000 -node-id fog1/d01-s01 ...
//	f2cctl  -node localhost:9000 status   # -node-id defaults to cloud
//	curl http://localhost:8080/opendata/v1/categories
func runAllInOne(opts core.Options, subs []cq.Subscription, listen, opendataListen string) error {
	sys, err := core.NewSystem(opts)
	if err != nil {
		return err
	}
	// Standing continuous queries from the deployment document land
	// before traffic does: the subscription router places each on its
	// owning tier (ring owner under elastic ownership, every section
	// otherwise).
	for _, sub := range subs {
		if err := sys.Subscribe(sub); err != nil {
			return errors.Join(fmt.Errorf("subscribe %s: %w", sub.ID, err), sys.Close(context.Background()))
		}
	}
	if len(subs) > 0 {
		log.Printf("registered %d standing subscription(s)", len(subs))
	}
	sys.Start()

	f1, f2, _ := sys.Topology().Counts()
	name := fmt.Sprintf("all-in-one %s (%d fog1 / %d fog2 / 1 cloud)", opts.City, f1, f2)
	return serve(name, listen, allInOneRouter{sys: sys}, nil, sys.Cloud().OpenDataHandler(), opendataListen, sys.Close)
}

// allInOneRouter dispatches each message to the hosted node its To
// field names.
type allInOneRouter struct {
	sys *core.System
}

// Handle implements transport.Handler.
func (r allInOneRouter) Handle(ctx context.Context, msg transport.Message) ([]byte, error) {
	h, err := r.handlerFor(msg.To)
	if err != nil {
		return nil, err
	}
	return h.Handle(ctx, msg)
}

func (r allInOneRouter) handlerFor(target string) (transport.Handler, error) {
	if target == core.CloudID {
		return r.sys.Cloud(), nil
	}
	if n, ok := r.sys.Fog1(target); ok {
		// Gateway ingest must honor the ownership rings like IngestAt
		// does: a sealed batch addressed at any section lands on its
		// type's ring owner, so elastic rebalance stays transparent to
		// edge clients that keep posting to their nearest node.
		return elasticIngestHandler{sys: r.sys, id: target, node: n}, nil
	}
	if n, ok := r.sys.Fog2(target); ok {
		return n, nil
	}
	return nil, fmt.Errorf("unknown node %q", target)
}

// elasticIngestHandler fronts a hosted fog layer-1 node: edge batches
// are re-addressed to the sensor type's ring owner before dispatch,
// every other message kind passes through to the addressed node.
type elasticIngestHandler struct {
	sys  *core.System
	id   string
	node transport.Handler
}

func (h elasticIngestHandler) Handle(ctx context.Context, msg transport.Message) ([]byte, error) {
	if msg.Kind == transport.KindBatch {
		if owner := h.sys.ElasticBatchOwner(h.id, msg.Payload); owner != h.id {
			if n, ok := h.sys.Fog1(owner); ok {
				msg.To = owner
				return n.Handle(ctx, msg)
			}
		}
	}
	return h.node.Handle(ctx, msg)
}

var _ transport.Handler = allInOneRouter{}
