// Package ofswitch implements an OpenFlow 1.0 switch datapath: the Open
// vSwitch stand-in of ESCAPE's infrastructure layer. A Switch owns a
// priority-ordered flow table, a set of ports wired into the emulated
// network (internal/netem), and a control channel to a controller
// (internal/pox) speaking the real OpenFlow wire protocol.
package ofswitch

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"escape/internal/openflow"
)

// FlowEntry is one installed flow-table entry.
type FlowEntry struct {
	// Packets and Bytes count the entry's hits. Lookup adds to them
	// atomically under the table's read lock; read them through Entries
	// or Aggregate while the entry is installed. They lead the struct so
	// that 64-bit atomic access is aligned on 32-bit platforms.
	Packets uint64
	Bytes   uint64

	Match       openflow.Match
	Priority    uint16
	Cookie      uint64
	IdleTimeout time.Duration // zero = none
	HardTimeout time.Duration // zero = none
	Flags       uint16
	Actions     []openflow.Action

	Created time.Time
	// LastUsed is the time of the sweep that last found the entry hit,
	// or Created. Lookup only sets used; the next Sweep turns it into
	// LastUsed, so the data path never reads the clock.
	LastUsed time.Time
	used     uint32 // atomic: hit since the last sweep
}

// snapshot copies the entry, reading the hit counters atomically.
func (e *FlowEntry) snapshot() FlowEntry {
	return FlowEntry{
		Packets:     atomic.LoadUint64(&e.Packets),
		Bytes:       atomic.LoadUint64(&e.Bytes),
		Match:       e.Match,
		Priority:    e.Priority,
		Cookie:      e.Cookie,
		IdleTimeout: e.IdleTimeout,
		HardTimeout: e.HardTimeout,
		Flags:       e.Flags,
		Actions:     e.Actions,
		Created:     e.Created,
		LastUsed:    e.LastUsed,
	}
}

// FlowTable is a priority-ordered OpenFlow 1.0 flow table.
type FlowTable struct {
	mu      sync.RWMutex
	entries []*FlowEntry // sorted by priority desc, stable insertion order
	// Removed receives entries evicted by timeout sweeps when the entry
	// requested SendFlowRem. The switch forwards them as FLOW_REMOVED.
	removed func(*FlowEntry, uint8)
}

// NewFlowTable returns an empty table. The removed callback may be nil.
func NewFlowTable(removed func(e *FlowEntry, reason uint8)) *FlowTable {
	return &FlowTable{removed: removed}
}

// Len reports the number of installed entries.
func (t *FlowTable) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.entries)
}

// Entries returns a snapshot copy of the table (stats requests).
func (t *FlowTable) Entries() []FlowEntry {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make([]FlowEntry, len(t.entries))
	for i, e := range t.entries {
		out[i] = e.snapshot()
	}
	return out
}

// Add installs an entry, replacing any entry with identical match and
// priority (OpenFlow ADD semantics).
func (t *FlowTable) Add(e *FlowEntry) {
	now := time.Now()
	e.Created = now
	e.LastUsed = now
	t.mu.Lock()
	defer t.mu.Unlock()
	for i, old := range t.entries {
		if old.Priority == e.Priority && old.Match == e.Match {
			t.entries[i] = e
			return
		}
	}
	t.entries = append(t.entries, e)
	sort.SliceStable(t.entries, func(i, j int) bool {
		return t.entries[i].Priority > t.entries[j].Priority
	})
}

// Lookup returns the highest-priority entry matching fields and updates
// its counters, or nil on table miss. Concurrent lookups share the read
// lock: the counters and the used bit are atomic.
func (t *FlowTable) Lookup(f openflow.PacketFields, frameLen int) *FlowEntry {
	t.mu.RLock()
	defer t.mu.RUnlock()
	for _, e := range t.entries {
		if e.Match.Matches(f) {
			atomic.AddUint64(&e.Packets, 1)
			atomic.AddUint64(&e.Bytes, uint64(frameLen))
			atomic.StoreUint32(&e.used, 1)
			return e
		}
	}
	return nil
}

// subsumes reports whether a's match is equal to or more general than b's:
// every packet matching b also matches a. Used by non-strict
// MODIFY/DELETE.
func subsumes(a, b openflow.Match) bool {
	probe := openflow.PacketFields{
		InPort: b.InPort, DLSrc: b.DLSrc, DLDst: b.DLDst, DLVLAN: b.DLVLAN,
		VLANPCP: b.DLVLANPCP, DLType: b.DLType, NWTOS: b.NWTOS,
		NWProto: b.NWProto, NWSrc: b.NWSrc, NWDst: b.NWDst,
		TPSrc: b.TPSrc, TPDst: b.TPDst,
	}
	// a must match b's concrete fields, and a may not be stricter than b
	// on any field b wildcards.
	if !a.Matches(probe) {
		return false
	}
	wildOnly := func(bit uint32) bool { return b.Wildcards&bit == 0 || a.Wildcards&bit != 0 }
	for _, bit := range []uint32{
		openflow.WildInPort, openflow.WildDLVLAN, openflow.WildDLSrc,
		openflow.WildDLDst, openflow.WildDLType, openflow.WildNWProto,
		openflow.WildTPSrc, openflow.WildTPDst, openflow.WildDLVLANPCP,
		openflow.WildNWTOS,
	} {
		if !wildOnly(bit) {
			return false
		}
	}
	return true
}

// Modify updates actions on matching entries; strict requires equal match
// and priority. Returns the number of entries updated.
func (t *FlowTable) Modify(m openflow.Match, priority uint16, actions []openflow.Action, strict bool) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for _, e := range t.entries {
		if strict {
			if e.Priority == priority && e.Match == m {
				e.Actions = actions
				n++
			}
		} else if subsumes(m, e.Match) {
			e.Actions = actions
			n++
		}
	}
	return n
}

// Delete removes matching entries; strict requires equal match and
// priority. Entries flagged SendFlowRem are reported through the removed
// callback. Returns the number of entries removed.
func (t *FlowTable) Delete(m openflow.Match, priority uint16, strict bool) int {
	t.mu.Lock()
	var victims []*FlowEntry
	keep := t.entries[:0]
	for _, e := range t.entries {
		doomed := false
		if strict {
			doomed = e.Priority == priority && e.Match == m
		} else {
			doomed = subsumes(m, e.Match)
		}
		if doomed {
			victims = append(victims, e)
		} else {
			keep = append(keep, e)
		}
	}
	t.entries = keep
	t.mu.Unlock()
	for _, e := range victims {
		t.notifyRemoved(e, openflow.RemReasonDelete)
	}
	return len(victims)
}

// Sweep evicts entries whose idle or hard timeout has expired and returns
// the number evicted. An entry hit since the previous sweep counts as used
// at now. The switch calls it periodically.
func (t *FlowTable) Sweep(now time.Time) int {
	t.mu.Lock()
	var victims []*FlowEntry
	var reasons []uint8
	keep := t.entries[:0]
	for _, e := range t.entries {
		if atomic.SwapUint32(&e.used, 0) != 0 {
			e.LastUsed = now
		}
		switch {
		case e.HardTimeout > 0 && now.Sub(e.Created) >= e.HardTimeout:
			victims = append(victims, e)
			reasons = append(reasons, openflow.RemReasonHardTimeout)
		case e.IdleTimeout > 0 && now.Sub(e.LastUsed) >= e.IdleTimeout:
			victims = append(victims, e)
			reasons = append(reasons, openflow.RemReasonIdleTimeout)
		default:
			keep = append(keep, e)
		}
	}
	t.entries = keep
	t.mu.Unlock()
	for i, e := range victims {
		t.notifyRemoved(e, reasons[i])
	}
	return len(victims)
}

func (t *FlowTable) notifyRemoved(e *FlowEntry, reason uint8) {
	if t.removed != nil && e.Flags&openflow.FlagSendFlowRem != 0 {
		t.removed(e, reason)
	}
}

// Aggregate sums counters over entries subsumed by m.
func (t *FlowTable) Aggregate(m openflow.Match) openflow.AggregateStats {
	t.mu.RLock()
	defer t.mu.RUnlock()
	var agg openflow.AggregateStats
	for _, e := range t.entries {
		if subsumes(m, e.Match) {
			agg.PacketCount += atomic.LoadUint64(&e.Packets)
			agg.ByteCount += atomic.LoadUint64(&e.Bytes)
			agg.FlowCount++
		}
	}
	return agg
}
