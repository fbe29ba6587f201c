package cluster

import (
	"sort"
	"sync"

	"geomob/internal/tweet"
	"geomob/internal/wal"
)

// spool is the coordinator's view of its ingest spool: the durable WAL
// (CoordinatorOptions.WALDir) or an in-memory fallback with identical
// semantics minus crash durability. Either way, AppendGroup is the
// ingest acknowledgement point — one call per shipment, entry i getting
// sequence first+i — and each lane reads its node's drains back from
// PendingForNode, lowest sequence first, until every replica has acked.
type spool interface {
	SenderID() string
	AppendGroup(es []wal.Entry) (first uint64, err error)
	AckBatch(seqs []uint64, node int) error
	PendingForNode(node int, max int) ([]wal.Record, error)
	PendingRowsNode(node int) int64
	PendingRowsSlotNode(node, slot int) int64
	Stats() wal.Stats
	Close() error
}

// memSpool mirrors wal.Spool in memory for coordinators running
// without a WAL directory: same acknowledgement and replay contract,
// no durability across process death.
type memSpool struct {
	sender string

	mu      sync.Mutex
	nextSeq uint64
	recs    map[uint64]*wal.Record
	rowsN   map[int]int64
	rowsSN  map[int]map[int]int64
}

func newMemSpool(sender string) *memSpool {
	return &memSpool{
		sender:  sender,
		nextSeq: 1,
		recs:    map[uint64]*wal.Record{},
		rowsN:   map[int]int64{},
		rowsSN:  map[int]map[int]int64{},
	}
}

func (m *memSpool) SenderID() string { return m.sender }

func (m *memSpool) AppendGroup(es []wal.Entry) (uint64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	first := m.nextSeq
	for _, e := range es {
		rows := tweet.FrameRows(e.Frame)
		m.recs[m.nextSeq] = &wal.Record{Seq: m.nextSeq, Slot: e.Slot, Dests: e.Dests, Rows: rows, Frame: e.Frame}
		m.nextSeq++
		for node, mask := 0, e.Dests; mask != 0; node, mask = node+1, mask>>1 {
			if mask&1 != 0 {
				m.addRows(node, e.Slot, int64(rows))
			}
		}
	}
	return first, nil
}

func (m *memSpool) addRows(node, slot int, delta int64) {
	m.rowsN[node] += delta
	sn := m.rowsSN[node]
	if sn == nil {
		sn = map[int]int64{}
		m.rowsSN[node] = sn
	}
	sn[slot] += delta
	if sn[slot] <= 0 {
		delete(sn, slot)
	}
}

func (m *memSpool) ackLocked(seq uint64, node int) {
	rec := m.recs[seq]
	if rec == nil || rec.Dests&(1<<uint(node)) == 0 {
		return
	}
	rec.Dests &^= 1 << uint(node)
	m.addRows(node, rec.Slot, -int64(rec.Rows))
	if rec.Dests == 0 {
		delete(m.recs, seq)
	}
}

func (m *memSpool) AckBatch(seqs []uint64, node int) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, seq := range seqs {
		m.ackLocked(seq, node)
	}
	return nil
}

func (m *memSpool) PendingForNode(node int, max int) ([]wal.Record, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []wal.Record
	for _, rec := range m.recs {
		if rec.Dests&(1<<uint(node)) != 0 {
			out = append(out, *rec)
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Seq < out[b].Seq })
	if max > 0 && len(out) > max {
		out = out[:max]
	}
	return out, nil
}

func (m *memSpool) PendingRowsNode(node int) int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.rowsN[node]
}

func (m *memSpool) PendingRowsSlotNode(node, slot int) int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	if sn := m.rowsSN[node]; sn != nil {
		return sn[slot]
	}
	return 0
}

func (m *memSpool) Stats() wal.Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := wal.Stats{PendingRecords: len(m.recs), NextSeq: m.nextSeq}
	for _, rec := range m.recs {
		st.PendingRows += int64(rec.Rows)
		st.RetainedBytes += int64(len(rec.Frame))
	}
	return st
}

func (m *memSpool) Close() error { return nil }
