// Snapshot install: how catch-up repairs a replica whose missed
// batches were pruned from the append log. Log replay cannot reach
// such a replica, so for each partition it owes, the router streams it
// that one partition whole from a healthy donor replica; the repair
// then replays the log tail above the donor's cut (catchup.go), all
// under the partition lock, so the donor cut, the install, and the
// replay form one linearizable repair.
//
// Five frame types extend the ingest protocol; each transfer moves
// exactly one partition, so 'S', 'I', 'Y' and 'J' carry one entry:
//
//	'S' resync-request router → donor: the (dataset, part) to
//	                   snapshot; the donor locks that partition's
//	                   cursor and streams the snapshot
//	'D' chunk          donor → router → stale: one piece of one
//	                   snapshot file (name + bytes, ≤256 KiB); the
//	                   router forwards frames verbatim, never
//	                   materializing the snapshot
//	'Y' resync-state   donor → router: the partition's cursor captured
//	                   at the cut, after the last chunk; also the
//	                   stale replica's install ack (echoed cursor)
//	'I' install        router → stale: begin receiving a snapshot for
//	                   the named partition
//	'J' install-commit router → stale: all chunks forwarded; install
//	                   under this cursor
//
// Integrity: the chunks reassemble internal/segment's checksummed
// section format, and the receiver installs in Copy mode, which
// verifies every section's SHA-256 as it decodes — a corrupted or
// truncated transfer fails the install, the replica stays quarantined,
// and the next reconcile pass retries. Consistency: the router holds
// the partition's lock for the whole repair (no new batch can be
// sequenced for it) and the donor holds its local cursor lock across
// the engine snapshot, so the streamed state corresponds exactly to
// the reported cursor. Donor selection is placement order: the first
// servable other replica of the partition.

package cluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync/atomic"

	"modelir/internal/canon"
	"modelir/internal/segment"
)

// Resync frame types (ingest frames are in ingestwire.go, query frames
// in wire.go).
const (
	frameResyncReq   = 'S' // router → donor: partition to snapshot
	frameResyncChunk = 'D' // donor → router → stale: one snapshot-file chunk
	frameResyncState = 'Y' // donor → router: cursor at the cut; stale → router: install ack
	frameInstall     = 'I' // router → stale: begin snapshot install
	frameInstallDone = 'J' // router → stale: chunks done, commit under this cursor
)

// resyncChunkSize bounds one 'D' frame's data payload.
const resyncChunkSize = 256 << 10

// partRef names the partition in an 'S'/'I' request.
type partRef struct {
	Dataset string
	Part    int
}

func encodePartRef(ref partRef) []byte {
	b := []byte{wireVersion}
	b = canon.AppendString(b, ref.Dataset)
	return canon.AppendUint(b, uint64(ref.Part))
}

// readPartRef decodes a (dataset, part) pair.
func readPartRef(r *canon.Reader) (partRef, error) {
	var ref partRef
	var err error
	if ref.Dataset, err = r.String(); err != nil {
		return partRef{}, err
	}
	part, err := r.Uint()
	if err != nil {
		return partRef{}, err
	}
	if part > 1<<31 {
		return partRef{}, canon.ErrCorrupt
	}
	ref.Part = int(part)
	return ref, nil
}

func decodePartRef(payload []byte) (partRef, error) {
	r := canon.NewReader(payload)
	if err := readVersion(r); err != nil {
		return partRef{}, err
	}
	ref, err := readPartRef(r)
	if err != nil {
		return partRef{}, err
	}
	return ref, checkDrained(r)
}

// resyncEntry is the partition's cursor record in a 'Y'/'J' payload:
// the engine-local dataset backing it ("" for an empty partition), the
// tuple ID offset, and the last applied sequence number at the cut.
type resyncEntry struct {
	partRef
	Local   string
	Offset  int64
	LastSeq uint64
}

func encodeResyncEntry(e resyncEntry) []byte {
	b := encodePartRef(e.partRef)
	b = canon.AppendString(b, e.Local)
	b = canon.AppendUint(b, uint64(e.Offset))
	return canon.AppendUint(b, e.LastSeq)
}

func decodeResyncEntry(payload []byte) (resyncEntry, error) {
	r := canon.NewReader(payload)
	if err := readVersion(r); err != nil {
		return resyncEntry{}, err
	}
	ref, err := readPartRef(r)
	if err != nil {
		return resyncEntry{}, err
	}
	e := resyncEntry{partRef: ref}
	if e.Local, err = r.String(); err != nil {
		return resyncEntry{}, err
	}
	off, err := r.Uint()
	if err != nil {
		return resyncEntry{}, err
	}
	if off > 1<<62 {
		return resyncEntry{}, canon.ErrCorrupt
	}
	e.Offset = int64(off)
	if e.LastSeq, err = r.Uint(); err != nil {
		return resyncEntry{}, err
	}
	return e, checkDrained(r)
}

// encodeResyncChunk frames one piece of one snapshot file. The data
// bytes follow the name with no further framing: the decoder takes
// everything after the name, so chunks cost no per-byte overhead.
func encodeResyncChunk(name string, data []byte) []byte {
	b := []byte{wireVersion}
	b = canon.AppendString(b, name)
	return append(b, data...)
}

func decodeResyncChunk(payload []byte) (name string, data []byte, err error) {
	r := canon.NewReader(payload)
	if err := readVersion(r); err != nil {
		return "", nil, err
	}
	if name, err = r.String(); err != nil {
		return "", nil, err
	}
	return name, payload[len(payload)-r.Remaining():], nil
}

// ---- donor side ----

// chunkWriter buffers one file's bytes into ≤resyncChunkSize frames.
type chunkWriter struct {
	c    net.Conn
	name string
	buf  []byte
}

func (w *chunkWriter) Write(p []byte) (int, error) {
	total := len(p)
	for len(p) > 0 {
		if len(w.buf) >= resyncChunkSize {
			if err := w.flush(); err != nil {
				return 0, err
			}
		}
		room := resyncChunkSize - len(w.buf)
		if room > len(p) {
			room = len(p)
		}
		w.buf = append(w.buf, p[:room]...)
		p = p[room:]
	}
	return total, nil
}

func (w *chunkWriter) flush() error {
	err := writeFrame(w.c, frameResyncChunk, encodeResyncChunk(w.name, w.buf))
	w.buf = w.buf[:0]
	return err
}

// captureResync locks ref's cursor and records its entry. The caller
// holds pi.mu across the engine snapshot so the streamed state matches
// the cursor, then unlocks it.
func (n *Node) captureResync(ref partRef) (resyncEntry, *partIngest, error) {
	n.mu.Lock()
	entry, ok := n.parts[ref.Dataset][ref.Part]
	n.mu.Unlock()
	if !ok {
		return resyncEntry{}, nil, fmt.Errorf("cluster: resync: %q part %d not on this node", ref.Dataset, ref.Part)
	}
	pi := n.partIngest(ref.Dataset, ref.Part)
	pi.mu.Lock()
	return resyncEntry{partRef: ref, Local: entry.local, Offset: entry.offset, LastSeq: pi.lastSeq}, pi, nil
}

// serveResync is the donor handler for one 'S' request: capture the
// partition's cursor, stream its snapshot as 'D' chunks, finish with a
// 'Y' carrying the cursor.
func (n *Node) serveResync(c net.Conn, payload []byte) {
	ref, err := decodePartRef(payload)
	if err != nil {
		n.refuse(c, "bad-resync", err)
		return
	}
	entry, pi, err := n.captureResync(ref)
	if err != nil {
		n.refuse(c, "resync", err)
		return
	}
	defer pi.mu.Unlock()
	if entry.Local != "" {
		if err := n.eng.SnapshotDatasets(context.Background(), donorBackend{c: c}, []string{entry.Local}); err != nil {
			n.refuse(c, "resync", err)
			return
		}
	}
	writeFrame(c, frameResyncState, encodeResyncEntry(entry))
}

// donorBackend adapts the connection to segment.Backend for the donor
// snapshot: every file becomes a run of 'D' frames, and an empty file
// still emits one (empty) chunk so the receiver creates it. Open is
// unsupported — the stream is write-only.
type donorBackend struct {
	c net.Conn
}

func (db donorBackend) WriteFile(name string, write func(io.Writer) error) error {
	cw := &chunkWriter{c: db.c, name: name}
	if err := write(cw); err != nil {
		return err
	}
	return cw.flush()
}

func (db donorBackend) Open(string) (segment.Blob, error) {
	return nil, errors.New("cluster: donor stream is write-only")
}

// ---- receiver side ----

// handleInstall is the stale replica's receiver: accumulate the
// snapshot from 'D' chunks, install it when the 'J' commit arrives,
// and ack with 'Y'. Returns false when the session must end (error
// already reported); true leaves the session open for the router's
// log-tail replay.
func (n *Node) handleInstall(c net.Conn, payload []byte) bool {
	ref, err := decodePartRef(payload)
	if err != nil {
		n.refuse(c, "bad-resync", err)
		return false
	}
	files := make(map[string][]byte)
	typ, pl, err := readFrame(c)
	for ; err == nil && typ == frameResyncChunk; typ, pl, err = readFrame(c) {
		name, data, err := decodeResyncChunk(pl)
		if err != nil {
			n.refuse(c, "bad-resync", err)
			return false
		}
		files[name] = append(files[name], data...)
	}
	if err != nil {
		return false
	}
	if typ != frameInstallDone {
		n.refuse(c, "bad-frame", fmt.Errorf("unexpected frame %q during resync install", typ))
		return false
	}
	entry, err := decodeResyncEntry(pl)
	if err != nil {
		n.refuse(c, "bad-resync", err)
		return false
	}
	mem := segment.NewMem()
	for name, data := range files {
		if err := mem.Put(name, data); err != nil {
			n.refuse(c, "bad-resync", err)
			return false
		}
	}
	if err := n.installResync(mem, ref, entry); err != nil {
		n.refuse(c, "resync", err)
		return false
	}
	return writeFrame(c, frameResyncState, encodeResyncEntry(entry)) == nil
}

// installResync swaps the received snapshot in. Validation follows
// RestoreNode's discipline: the entry must answer the requested
// partition, that partition must be one this node holds under the boot
// topology, and the local name must be the deterministic dataset#part
// form, so a donor cannot graft a foreign dataset in. The partition
// cursor lock is held across the engine swap, serializing against any
// in-flight append; the engine install verifies section checksums and
// bumps the dataset's generation (stale cache entries invalidate).
func (n *Node) installResync(b segment.Backend, ref partRef, e resyncEntry) error {
	if e.partRef != ref {
		return fmt.Errorf("cluster: resync entry %q part %d was not requested (want %q part %d)",
			e.Dataset, e.Part, ref.Dataset, ref.Part)
	}
	if want := n.localName(e.Dataset, e.Part); e.Local != "" && e.Local != want {
		return fmt.Errorf("cluster: resync entry %q part %d names local %q, want %q",
			e.Dataset, e.Part, e.Local, want)
	}
	n.mu.Lock()
	_, ok := n.parts[e.Dataset][e.Part]
	n.mu.Unlock()
	if !ok {
		return fmt.Errorf("cluster: resync install: %q part %d not placed on this node", e.Dataset, e.Part)
	}

	pi := n.partIngest(e.Dataset, e.Part)
	pi.mu.Lock()
	defer pi.mu.Unlock()
	if e.Local != "" {
		if err := n.eng.InstallDatasets(b, []string{e.Local}); err != nil {
			return err
		}
	}
	n.mu.Lock()
	n.parts[e.Dataset][e.Part] = partEntry{local: e.Local, offset: e.Offset}
	n.mu.Unlock()
	pi.lastSeq = e.LastSeq
	return nil
}

// ---- router side ----

// routerResyncStats is the router's lifetime resync/recovery counter
// block (ResyncStats is the exported snapshot).
type routerResyncStats struct {
	resyncs       atomic.Int64
	failures      atomic.Int64
	bytesStreamed atomic.Int64
	replayed      atomic.Int64
	forcedPrunes  atomic.Int64
	catchUpErrors atomic.Int64
}

// ResyncStats is a point-in-time sample of the router's resync and
// recovery counters, surfaced through modelird's /stats.
type ResyncStats struct {
	// Resyncs counts completed donor→replica snapshot installs, one per
	// repaired partition.
	Resyncs int64 `json:"resyncs"`
	// Failures counts resync attempts that errored; the replica stays
	// quarantined and the next reconcile pass retries.
	Failures int64 `json:"failures"`
	// BytesStreamed totals the snapshot chunk bytes forwarded
	// donor→replica.
	BytesStreamed int64 `json:"bytes_streamed"`
	// ReplayedBatches counts logged batches replayed to quarantined
	// replicas during catch-up, above either the replica's own cursor
	// or a donor's cut.
	ReplayedBatches int64 `json:"replayed_batches"`
	// ForcedPrunes counts append-log records dropped by the log cap
	// before every replica acked them (each forces the lagging replica
	// through resync instead of replay).
	ForcedPrunes int64 `json:"forced_prunes"`
	// CatchUpErrors counts reconcile passes whose catch-up failed; the
	// per-peer error text is in PeerErrors.
	CatchUpErrors int64 `json:"catchup_errors"`
}

// ResyncStats samples the router's resync/recovery counters.
func (r *Router) ResyncStats() ResyncStats {
	return ResyncStats{
		Resyncs:         r.stats.resyncs.Load(),
		Failures:        r.stats.failures.Load(),
		BytesStreamed:   r.stats.bytesStreamed.Load(),
		ReplayedBatches: r.stats.replayed.Load(),
		ForcedPrunes:    r.stats.forcedPrunes.Load(),
		CatchUpErrors:   r.stats.catchUpErrors.Load(),
	}
}

// PeerErrors reports each peer's last catch-up/resync error, if any —
// a permanently stuck replica is visible here instead of silent.
func (r *Router) PeerErrors() map[string]string {
	return r.health.notes()
}

// Degraded reports whether any topology peer is currently not Healthy —
// i.e. some partition is serving with less than its full replica set.
// The cluster still answers (reads need one replica), but fault
// tolerance is reduced; modelird's router /healthz surfaces this as
// "degraded" with a 200 status.
func (r *Router) Degraded() bool {
	for _, st := range r.PeerHealth() {
		if st != Healthy {
			return true
		}
	}
	return false
}

// installFromDonor streams one partition to addr over conn, the
// replica's open ingest session, from the first servable other replica
// in placement order, and returns the donor's cursor: the cut above
// which the caller replays the log. Caller holds pa.mu.
func (r *Router) installFromDonor(ctx context.Context, conn net.Conn, addr, dataset string, pa *partIngestState) (uint64, error) {
	donor := ""
	for _, cand := range pa.nodes {
		if cand != addr && r.health.servable(cand) {
			donor = cand
			break
		}
	}
	if donor == "" {
		return 0, fmt.Errorf("%w: %q part %d: no healthy donor for resync",
			ErrPartitionUnavailable, dataset, pa.part)
	}
	ref := partRef{Dataset: dataset, Part: pa.part}
	dc, err := r.dialIngest(ctx, donor)
	if err != nil {
		r.health.fault(donor)
		return 0, err
	}
	defer dc.Close()
	if err := writeFrame(dc, frameResyncReq, encodePartRef(ref)); err != nil {
		r.health.fault(donor)
		return 0, err
	}
	if err := writeFrame(conn, frameInstall, encodePartRef(ref)); err != nil {
		r.health.fault(addr)
		return 0, err
	}

	// Pump: donor chunks forward verbatim until the donor's 'Y'.
	var typ byte
	var pl []byte
	var streamed int64
	for {
		_ = dc.SetDeadline(ackDeadline(ctx, r.opt.AckTimeout))
		_ = conn.SetDeadline(ackDeadline(ctx, r.opt.AckTimeout))
		if typ, pl, err = readFrame(dc); err != nil {
			r.health.fault(donor)
			return 0, err
		}
		if typ == frameResyncState {
			break
		}
		if typ != frameResyncChunk {
			return 0, replyError(donor, typ, pl)
		}
		streamed += int64(len(pl))
		if err := writeFrame(conn, frameResyncChunk, pl); err != nil {
			r.health.fault(addr)
			return 0, err
		}
	}
	cut, err := decodeResyncEntry(pl)
	if err != nil {
		return 0, err
	}
	if cut.partRef != ref {
		return 0, fmt.Errorf("%w: donor cut for %q part %d, want %q part %d",
			ErrFrame, cut.Dataset, cut.Part, dataset, pa.part)
	}
	if err := writeFrame(conn, frameInstallDone, encodeResyncEntry(cut)); err != nil {
		r.health.fault(addr)
		return 0, err
	}
	_ = conn.SetDeadline(ackDeadline(ctx, r.opt.AckTimeout))
	if typ, pl, err = readFrame(conn); err != nil {
		r.health.fault(addr)
		return 0, err
	}
	if typ != frameResyncState {
		return 0, replyError(addr, typ, pl)
	}
	r.stats.resyncs.Add(1)
	r.stats.bytesStreamed.Add(streamed)
	return cut.LastSeq, nil
}
