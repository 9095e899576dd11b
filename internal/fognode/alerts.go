package fognode

// Continuous-query alert plane: standing subscriptions (internal/cq)
// evaluated incrementally in the ingest hot path — threshold
// subscriptions fire on each accepted batch, window subscriptions when
// a flush harvests the windows that closed. Fired alerts seal into an
// AlertPush, an outbox item (see outbox.go) queued behind the type's
// batches and summaries and delivered parent-only.
//
// Delivery is at-least-once with two dedup tiers: the receiving
// tier's replay filter drops a retried push by its (Origin, Seq), and
// the cloud stores alerts keyed by their instance identity
// (FiredBy, SubID, StartUnix, Kind), which also absorbs re-batched
// copies when queue overflow folds an old push's alerts into a
// younger push. On a durable node every seal and commit is journaled,
// so a rebooted node resumes its subscriptions, its queued pushes,
// and — critically — the emitted marks that stop a recovered window
// from firing twice.

import (
	"bytes"
	"fmt"
	"time"

	"f2c/internal/cq"
	"f2c/internal/model"
	"f2c/internal/protocol"
)

// Subscribe registers a standing continuous query on this node. On a
// durable node the registration is journaled first (the acceptance
// gate), so a rebooted node still evaluates it.
func (n *Node) Subscribe(sub cq.Subscription) error {
	if err := sub.Validate(); err != nil {
		return fmt.Errorf("fognode %s: %w", n.cfg.Spec.ID, err)
	}
	if n.journal != nil {
		if err := n.journal.appendSubscribe(sub); err != nil {
			return fmt.Errorf("fognode %s: subscribe: %w", n.cfg.Spec.ID, err)
		}
	}
	return n.cqe.Subscribe(sub)
}

// Unsubscribe cancels a standing subscription.
func (n *Node) Unsubscribe(id string) bool {
	if n.journal != nil {
		_ = n.journal.appendUnsubscribe(id)
	}
	return n.cqe.Unsubscribe(id)
}

// Subscriptions lists this node's standing subscriptions.
func (n *Node) Subscriptions() []cq.Subscription { return n.cqe.Subscriptions() }

// observeAlerts offers an accepted batch to the cq engine and seals
// whatever threshold alerts it fired. The engine's lock-free empty
// fast path keeps this one atomic load on nodes without
// subscriptions.
func (n *Node) observeAlerts(b *model.Batch) {
	if alerts := n.cqe.Observe(b); len(alerts) != 0 {
		n.sealAlerts(alerts)
	}
}

// harvestAlerts closes and seals the windows that have ended by now —
// driven from the head of every flush.
func (n *Node) harvestAlerts(now time.Time) {
	if alerts := n.cqe.Harvest(now); len(alerts) != 0 {
		n.sealAlerts(alerts)
	}
}

// sealAlerts groups fired alerts by sensor type and seals one push
// per type onto the owning shard's alert queue, types in first-seen
// order.
func (n *Node) sealAlerts(alerts []cq.Alert) {
	byType := make(map[string][]cq.Alert, 1)
	var order []string
	for _, a := range alerts {
		if _, ok := byType[a.TypeName]; !ok {
			order = append(order, a.TypeName)
		}
		byType[a.TypeName] = append(byType[a.TypeName], a)
	}
	for _, typ := range order {
		n.sealAlertGroup(byType[typ])
	}
}

// sealAlertGroup freezes one type's fired alerts into a push under a
// fresh delivery sequence, journals the seal, queues it for the next
// flush, and reports it to the alert observer — the fire point of the
// exactly-once ledger. Alerts in the group share a type but may come
// from different subscriptions. A push the codec refuses is counted
// shed.
func (n *Node) sealAlertGroup(alerts []cq.Alert) {
	if len(alerts) == 0 {
		return
	}
	me := n.cfg.Spec.ID
	typ := alerts[0].TypeName
	push := protocol.AlertPush{
		Origin:   me,
		Seq:      n.seq.Add(1),
		TypeName: typ,
		Category: alerts[0].Category.String(),
		Alerts:   make([]protocol.Alert, 0, len(alerts)),
	}
	for i := range alerts {
		a := &alerts[i]
		push.Alerts = append(push.Alerts, protocol.Alert{
			SubID:     a.SubID,
			FiredBy:   me,
			Kind:      string(a.Kind),
			StartUnix: a.StartUnix,
			EndUnix:   a.EndUnix,
			Summary:   a.Summary,
			Value:     a.Value,
		})
	}
	payload, err := protocol.EncodeAlertPush(&push)
	if err != nil {
		n.alertsShed.Add(int64(len(push.Alerts)))
		return
	}
	it := alertItem(&push, payload)
	sh := n.shardFor(typ)
	sh.mu.Lock()
	n.journalSeal(&it)
	n.queueLocked(sh, typ, it)
	sh.mu.Unlock()
	n.alertsFired.Add(int64(len(push.Alerts)))
	if n.cfg.AlertObserver != nil {
		n.cfg.AlertObserver(push)
	}
}

// absorbAlert is a fog tier's receiving half: a child's push is
// journaled as the acceptance gate, then queued VERBATIM — original
// identity preserved — for this node's own upward flush.
// Store-and-forward, not re-ingest: the cloud must see the firing
// node's instance identities unchanged.
func (n *Node) absorbAlert(p *protocol.AlertPush, payload []byte) error {
	sh, err := n.acceptLocked(p.TypeName)
	if err != nil {
		return err
	}
	defer sh.mu.Unlock()
	it := alertItem(p, bytes.Clone(payload))
	if n.journal != nil {
		if err := n.journal.appendSeal(&it); err != nil {
			return fmt.Errorf("fognode %s: alert push: %w", n.cfg.Spec.ID, err)
		}
	}
	n.queueLocked(sh, p.TypeName, it)
	n.alertsIn.Add(int64(len(p.Alerts)))
	return nil
}

// AlertsFired reports how many alert instances this node's
// subscriptions fired.
func (n *Node) AlertsFired() int64 { return n.alertsFired.Value() }

// AlertPushesOut reports how many alert pushes this node delivered
// upward.
func (n *Node) AlertPushesOut() int64 { return n.sent[protocol.ItemAlert].Value() }

// AlertsInbound reports how many alert instances arrived from below.
func (n *Node) AlertsInbound() int64 { return n.alertsIn.Value() }
