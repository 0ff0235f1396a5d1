// Catch-up: the road out of quarantine. A stale replica missed one or
// more append batches; because every partition's appends carry
// monotone sequence numbers and the router keeps each unacked batch's
// encoded frame in its per-partition log, the repair is exact and runs
// one partition at a time (repairPart) under that partition's lock:
//
//	'U' ask the replica for its cursor
//	    ├─ log covers the gap ── cut = replica cursor
//	    └─ gap pruned ────────── cut = donor cursor, after the donor
//	                             streams the partition in (resync.go)
//	'A' replay every logged batch above the cut, acked one by one
//
// The node's idempotent cursor makes re-replaying an already-applied
// batch a no-op. Only when every partition the replica owns is provably
// current — and no new batch was missed while verifying (the quarantine
// generation) — does the health tracker re-admit it. The replica always
// converges without operator action as long as one healthy donor
// replica exists.
//
// The same exchange doubles as the router's crash recovery: a replica
// whose cursor is *ahead* of the router's (the router restarted and
// re-learned state while this replica was unreachable) has its cursor
// and row watermark adopted, so a recovered router never reuses a
// sequence number or a global tuple ID range.

package cluster

import (
	"context"
	"fmt"
	"net"
	"slices"
	"time"
)

// catchUpPasses bounds CatchUp's verify loop: each pass repairs every
// partition the replica owns, and a pass that ends with the
// quarantine generation unchanged lifts the quarantine. More passes
// are only needed when appends keep landing mid-verification.
const catchUpPasses = 5

// ackDeadline converts the ack timeout into an absolute connection
// deadline, honoring an earlier ctx deadline.
func ackDeadline(ctx context.Context, timeout time.Duration) time.Time {
	dl := time.Now().Add(timeout)
	if d, ok := ctx.Deadline(); ok && d.Before(dl) {
		return d
	}
	return dl
}

// dialIngest opens an ingest-session connection to addr.
func (r *Router) dialIngest(ctx context.Context, addr string) (net.Conn, error) {
	d := net.Dialer{Timeout: r.opt.DialTimeout}
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, err
	}
	_ = conn.SetDeadline(ackDeadline(ctx, r.opt.AckTimeout))
	return conn, nil
}

// Probe checks liveness: one 'H' frame, echoed back. The result feeds
// the health tracker (ok can lift Down back to Healthy; it never lifts
// Stale — reachability is not consistency).
func (r *Router) Probe(ctx context.Context, addr string) error {
	conn, err := r.dialIngest(ctx, addr)
	if err != nil {
		r.health.fault(addr)
		return err
	}
	defer conn.Close()
	if err := writeFrame(conn, frameHealth, nil); err != nil {
		r.health.fault(addr)
		return err
	}
	typ, _, err := readFrame(conn)
	if err != nil || typ != frameHealth {
		r.health.fault(addr)
		if err == nil {
			err = fmt.Errorf("%w: probe answered %q", ErrFrame, typ)
		}
		return err
	}
	r.health.ok(addr)
	return nil
}

// seqStateOf asks addr for its append cursors ('U' exchange on a fresh
// connection). dataset filters to one dataset; "" asks for all.
func (r *Router) seqStateOf(ctx context.Context, addr, dataset string) ([]SeqEntry, error) {
	conn, err := r.dialIngest(ctx, addr)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	return seqStateOn(conn, dataset)
}

// seqStateOn runs one 'U' exchange on an established connection.
func seqStateOn(conn net.Conn, dataset string) ([]SeqEntry, error) {
	if err := writeFrame(conn, frameSeqState, encodeSeqStateReq(dataset)); err != nil {
		return nil, err
	}
	typ, payload, err := readFrame(conn)
	if err != nil {
		return nil, err
	}
	if typ != frameSeqState {
		return nil, replyError(conn.RemoteAddr().String(), typ, payload)
	}
	return decodeSeqState(payload)
}

// CatchUp brings addr current on every partition it owns and, if the
// quarantine generation did not move while verifying, re-admits it.
// Safe to call on a healthy replica (nothing is replayed) and
// idempotent on a stale one.
func (r *Router) CatchUp(ctx context.Context, addr string) error {
	for pass := 0; pass < catchUpPasses; pass++ {
		gen := r.health.quarantineGen(addr)
		r.ing.mu.Lock()
		sets := make(map[string]*dsIngest, len(r.ing.sets))
		for name, ds := range r.ing.sets {
			sets[name] = ds
		}
		r.ing.mu.Unlock()

		for name, ds := range sets {
			ds.mu.Lock()
			synced := ds.synced
			parts := ds.parts
			ds.mu.Unlock()
			if !synced {
				continue
			}
			var high int64
			for _, pa := range parts {
				if !slices.Contains(pa.nodes, addr) {
					continue
				}
				watermark, err := r.repairPart(ctx, addr, name, pa)
				if err != nil {
					return err
				}
				high = max(high, watermark)
			}
			// Ratchet the global tuple row counter to the highest
			// watermark any owned partition reported: after a router
			// restart a re-appearing replica may know of rows this router
			// never sequenced, and a fresh append must not reuse their
			// IDs. (Outside pa.mu — AppendSeqs nests ds.mu→pa.mu, never
			// the reverse.)
			ds.mu.Lock()
			ds.rows = max(ds.rows, high)
			ds.mu.Unlock()
		}
		if r.health.caughtUp(addr, gen) {
			return nil
		}
		// Another batch was missed mid-verification; close the new gap.
	}
	return fmt.Errorf("cluster: %s still behind after %d catch-up passes", addr, catchUpPasses)
}

// repairPart brings addr current on one partition and reports the row
// watermark the replica held when asked. It holds the partition lock
// throughout, so no new batch can interleave; appends to other
// partitions proceed. The cut — the sequence number the replica is
// known to hold — is its own cursor when the log still covers the gap,
// and otherwise the cursor of a donor snapshot installed over the same
// connection (installFromDonor). Either way the logged batches above
// the cut are then replayed, acked one by one.
func (r *Router) repairPart(ctx context.Context, addr, dataset string, pa *partIngestState) (int64, error) {
	pa.mu.Lock()
	defer pa.mu.Unlock()

	conn, err := r.dialIngest(ctx, addr)
	if err != nil {
		r.health.fault(addr)
		return 0, err
	}
	defer conn.Close()
	entries, err := seqStateOn(conn, dataset)
	if err != nil {
		r.health.fault(addr)
		return 0, err
	}
	var cut uint64
	var watermark int64
	for _, e := range entries {
		if e.Dataset == dataset && e.Part == pa.part {
			cut, watermark = e.LastSeq, e.Watermark
			break
		}
	}
	want := pa.nextSeq - 1
	if cut < want && (len(pa.log) == 0 || pa.log[0].seq > cut+1) {
		// The missed batches were pruned from the log: only a snapshot
		// transfer can repair this replica.
		r.health.startResync(addr)
		if cut, err = r.installFromDonor(ctx, conn, addr, dataset, pa); err != nil {
			r.stats.failures.Add(1)
			return 0, fmt.Errorf("cluster: resync %s: %w", addr, err)
		}
	}
	if cut > want {
		// The replica is ahead of this router: batches sequenced by a
		// previous router incarnation landed here while this one was
		// syncing. Adopt its cursor so new appends continue above it.
		pa.nextSeq = cut + 1
		want = cut
	}
	for _, rec := range pa.log {
		if rec.seq <= cut {
			continue
		}
		// Refresh the deadline per batch so a long replay doesn't trip
		// the ack timeout.
		_ = conn.SetDeadline(ackDeadline(ctx, r.opt.AckTimeout))
		if _, err, transport := sendBatch(conn, addr, rec.seq, rec.payload); err != nil {
			if transport {
				r.health.fault(addr)
			}
			return 0, err
		}
		r.stats.replayed.Add(1)
	}
	pa.acked[addr] = want
	pa.prune()
	return watermark, nil
}

// Reconcile runs one health pass over every topology peer: probe each,
// and walk any reachable quarantined replica through catch-up (which
// installs a donor snapshot where the log no longer covers its gap).
// A catch-up failure keeps the replica quarantined, counts in
// ResyncStats, and records the error against the peer for /stats. It
// returns the post-pass health map.
func (r *Router) Reconcile(ctx context.Context) map[string]HealthState {
	for _, addr := range r.topo.Nodes {
		if err := r.Probe(ctx, addr); err != nil {
			continue
		}
		if st := r.health.state(addr); st == Stale || st == Resyncing {
			if err := r.CatchUp(ctx, addr); err != nil {
				r.stats.catchUpErrors.Add(1)
				r.health.noteErr(addr, err)
			}
		}
	}
	return r.PeerHealth()
}

// StartHealthLoop runs Reconcile every interval until Close. Starting
// an already-running loop is a no-op.
func (r *Router) StartHealthLoop(interval time.Duration) {
	if interval <= 0 {
		interval = 2 * time.Second
	}
	r.loopMu.Lock()
	defer r.loopMu.Unlock()
	if r.loopStop != nil {
		return
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	r.loopStop, r.loopDone = stop, done
	go func() {
		defer close(done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				ctx, cancel := context.WithTimeout(context.Background(), interval)
				r.Reconcile(ctx)
				cancel()
			}
		}
	}()
}

// Close stops the health loop, if running.
func (r *Router) Close() error {
	r.loopMu.Lock()
	stop, done := r.loopStop, r.loopDone
	r.loopStop, r.loopDone = nil, nil
	r.loopMu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
	return nil
}
