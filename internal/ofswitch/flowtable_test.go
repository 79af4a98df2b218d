package ofswitch

import (
	"sync"
	"testing"
	"testing/quick"
	"time"

	"escape/internal/openflow"
	"escape/internal/pkt"
)

var (
	fmac1 = pkt.MAC{2, 0, 0, 0, 0, 1}
	fmac2 = pkt.MAC{2, 0, 0, 0, 0, 2}
)

func fieldsOnPort(t testing.TB, inPort uint16) openflow.PacketFields {
	t.Helper()
	frame, err := pkt.BuildUDP(fmac1, fmac2, tip("10.0.0.1"), tip("10.0.0.2"), 100, 200, nil)
	if err != nil {
		t.Fatal(err)
	}
	f, err := openflow.ExtractFields(frame, inPort)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func matchInPort(p uint16) openflow.Match {
	m := openflow.MatchAll()
	m.Wildcards &^= openflow.WildInPort
	m.InPort = p
	return m
}

func TestFlowTablePriorityOrder(t *testing.T) {
	ft := NewFlowTable(nil)
	lo := &FlowEntry{Match: openflow.MatchAll(), Priority: 1, Cookie: 1}
	hi := &FlowEntry{Match: matchInPort(1), Priority: 100, Cookie: 2}
	ft.Add(lo)
	ft.Add(hi)
	f := fieldsOnPort(t, 1)
	got := ft.Lookup(f, 60)
	if got == nil || got.Cookie != 2 {
		t.Fatalf("lookup = %+v, want high-priority entry", got)
	}
	// Port 2 misses the specific entry, falls to the wildcard.
	f2 := fieldsOnPort(t, 2)
	got2 := ft.Lookup(f2, 60)
	if got2 == nil || got2.Cookie != 1 {
		t.Fatalf("lookup = %+v, want wildcard entry", got2)
	}
}

func TestFlowTableAddReplacesSameMatch(t *testing.T) {
	ft := NewFlowTable(nil)
	ft.Add(&FlowEntry{Match: matchInPort(1), Priority: 5, Cookie: 1})
	ft.Add(&FlowEntry{Match: matchInPort(1), Priority: 5, Cookie: 2})
	if ft.Len() != 1 {
		t.Fatalf("len = %d, want 1 (replace)", ft.Len())
	}
	if e := ft.Lookup(fieldsOnPort(t, 1), 60); e.Cookie != 2 {
		t.Errorf("cookie = %d, want 2", e.Cookie)
	}
	// Different priority is a distinct entry.
	ft.Add(&FlowEntry{Match: matchInPort(1), Priority: 6, Cookie: 3})
	if ft.Len() != 2 {
		t.Errorf("len = %d, want 2", ft.Len())
	}
}

func TestFlowTableCounters(t *testing.T) {
	ft := NewFlowTable(nil)
	ft.Add(&FlowEntry{Match: openflow.MatchAll(), Priority: 1})
	ft.Lookup(fieldsOnPort(t, 1), 100)
	ft.Lookup(fieldsOnPort(t, 1), 50)
	e := ft.Entries()[0]
	if e.Packets != 2 || e.Bytes != 150 {
		t.Errorf("counters = %d pkts %d bytes", e.Packets, e.Bytes)
	}
}

func TestFlowTableDeleteStrictVsNonStrict(t *testing.T) {
	ft := NewFlowTable(nil)
	ft.Add(&FlowEntry{Match: matchInPort(1), Priority: 5})
	ft.Add(&FlowEntry{Match: matchInPort(2), Priority: 5})
	ft.Add(&FlowEntry{Match: openflow.MatchAll(), Priority: 1})
	// Strict delete of a non-existent (match, prio) combination: no-op.
	if n := ft.Delete(matchInPort(1), 99, true); n != 0 {
		t.Errorf("strict delete removed %d", n)
	}
	// Strict delete of exactly one.
	if n := ft.Delete(matchInPort(1), 5, true); n != 1 {
		t.Errorf("strict delete removed %d", n)
	}
	// Non-strict wildcard delete removes everything remaining.
	if n := ft.Delete(openflow.MatchAll(), 0, false); n != 2 {
		t.Errorf("non-strict delete removed %d", n)
	}
	if ft.Len() != 0 {
		t.Errorf("len = %d", ft.Len())
	}
}

func TestFlowTableModify(t *testing.T) {
	ft := NewFlowTable(nil)
	ft.Add(&FlowEntry{Match: matchInPort(1), Priority: 5, Actions: []openflow.Action{openflow.ActionOutput{Port: 1}}})
	ft.Add(&FlowEntry{Match: matchInPort(2), Priority: 5, Actions: []openflow.Action{openflow.ActionOutput{Port: 2}}})
	n := ft.Modify(openflow.MatchAll(), 0, []openflow.Action{openflow.ActionOutput{Port: 9}}, false)
	if n != 2 {
		t.Fatalf("modified %d", n)
	}
	for _, e := range ft.Entries() {
		if e.Actions[0].(openflow.ActionOutput).Port != 9 {
			t.Errorf("entry not modified: %+v", e.Actions)
		}
	}
}

func TestFlowTableSweepTimeouts(t *testing.T) {
	var removed []uint8
	ft := NewFlowTable(func(e *FlowEntry, reason uint8) { removed = append(removed, reason) })
	ft.Add(&FlowEntry{Match: matchInPort(1), Priority: 5,
		IdleTimeout: 10 * time.Millisecond, Flags: openflow.FlagSendFlowRem})
	ft.Add(&FlowEntry{Match: matchInPort(2), Priority: 5,
		HardTimeout: 20 * time.Millisecond, Flags: openflow.FlagSendFlowRem})
	ft.Add(&FlowEntry{Match: matchInPort(3), Priority: 5}) // no timeout
	if n := ft.Sweep(time.Now()); n != 0 {
		t.Fatalf("premature sweep removed %d", n)
	}
	n := ft.Sweep(time.Now().Add(50 * time.Millisecond))
	if n != 2 {
		t.Fatalf("sweep removed %d, want 2", n)
	}
	if ft.Len() != 1 {
		t.Errorf("len = %d", ft.Len())
	}
	if len(removed) != 2 {
		t.Fatalf("removed callbacks = %d", len(removed))
	}
	seen := map[uint8]bool{}
	for _, r := range removed {
		seen[r] = true
	}
	if !seen[openflow.RemReasonIdleTimeout] || !seen[openflow.RemReasonHardTimeout] {
		t.Errorf("reasons = %v", removed)
	}
}

func TestFlowTableIdleRefreshedByTraffic(t *testing.T) {
	ft := NewFlowTable(nil)
	ft.Add(&FlowEntry{Match: openflow.MatchAll(), Priority: 1, IdleTimeout: 50 * time.Millisecond})
	base := time.Now()
	// Traffic at +40ms refreshes LastUsed.
	time.Sleep(40 * time.Millisecond)
	ft.Lookup(fieldsOnPort(t, 1), 60)
	if n := ft.Sweep(base.Add(60 * time.Millisecond)); n != 0 {
		t.Fatalf("active flow evicted")
	}
}

func TestAggregateStats(t *testing.T) {
	ft := NewFlowTable(nil)
	ft.Add(&FlowEntry{Match: matchInPort(1), Priority: 5})
	ft.Add(&FlowEntry{Match: matchInPort(2), Priority: 5})
	ft.Lookup(fieldsOnPort(t, 1), 100)
	ft.Lookup(fieldsOnPort(t, 2), 100)
	ft.Lookup(fieldsOnPort(t, 2), 100)
	agg := ft.Aggregate(openflow.MatchAll())
	if agg.FlowCount != 2 || agg.PacketCount != 3 || agg.ByteCount != 300 {
		t.Errorf("aggregate = %+v", agg)
	}
	// Aggregate over a specific in_port.
	agg1 := ft.Aggregate(matchInPort(1))
	if agg1.FlowCount != 1 || agg1.PacketCount != 1 {
		t.Errorf("aggregate(port1) = %+v", agg1)
	}
}

func TestSubsumes(t *testing.T) {
	all := openflow.MatchAll()
	p1 := matchInPort(1)
	if !subsumes(all, p1) {
		t.Error("wildcard must subsume specific")
	}
	if subsumes(p1, all) {
		t.Error("specific must not subsume wildcard")
	}
	if !subsumes(p1, p1) {
		t.Error("subsumes must be reflexive")
	}
	p2 := matchInPort(2)
	if subsumes(p1, p2) || subsumes(p2, p1) {
		t.Error("disjoint matches subsume each other")
	}
}

// Property: Lookup always returns the highest-priority matching entry.
func TestQuickLookupHighestPriority(t *testing.T) {
	f := func(prios []uint16) bool {
		if len(prios) == 0 {
			return true
		}
		if len(prios) > 32 {
			prios = prios[:32]
		}
		ft := NewFlowTable(nil)
		max := uint16(0)
		for i, p := range prios {
			ft.Add(&FlowEntry{Match: openflow.MatchAll(), Priority: p, Cookie: uint64(i)})
			if p > max {
				max = p
			}
		}
		e := ft.Lookup(fieldsOnPort(t, 1), 60)
		return e != nil && e.Priority == max
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Concurrent lookups share the read lock; the hit counters stay exact.
func TestFlowTableConcurrentCountersExact(t *testing.T) {
	ft := NewFlowTable(nil)
	ft.Add(&FlowEntry{Match: openflow.MatchAll(), Priority: 1})
	f := fieldsOnPort(t, 1)
	const workers, perWorker = 4, 5000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(size int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				ft.Lookup(f, size)
			}
		}(60 + w)
	}
	// Readers run alongside: snapshots and aggregates read atomically.
	for i := 0; i < 100; i++ {
		ft.Entries()
		ft.Aggregate(openflow.MatchAll())
	}
	wg.Wait()
	e := ft.Entries()[0]
	wantBytes := uint64(0)
	for w := 0; w < workers; w++ {
		wantBytes += uint64(perWorker * (60 + w))
	}
	if e.Packets != workers*perWorker || e.Bytes != wantBytes {
		t.Errorf("counters = %d pkts %d bytes, want %d pkts %d bytes",
			e.Packets, e.Bytes, workers*perWorker, wantBytes)
	}
}

// An entry hit between two sweeps does not idle-expire at the second;
// an entry left unused does.
func TestFlowTableUsedBitRefreshesIdle(t *testing.T) {
	ft := NewFlowTable(nil)
	ft.Add(&FlowEntry{Match: matchInPort(1), Priority: 1, Cookie: 1, IdleTimeout: 50 * time.Millisecond})
	ft.Add(&FlowEntry{Match: matchInPort(2), Priority: 1, Cookie: 2, IdleTimeout: 50 * time.Millisecond})
	base := time.Now()
	if n := ft.Sweep(base.Add(30 * time.Millisecond)); n != 0 {
		t.Fatalf("first sweep evicted %d", n)
	}
	ft.Lookup(fieldsOnPort(t, 1), 60)
	if n := ft.Sweep(base.Add(70 * time.Millisecond)); n != 1 {
		t.Fatalf("second sweep evicted %d, want the unused entry only", n)
	}
	es := ft.Entries()
	if len(es) != 1 || es[0].Cookie != 1 {
		t.Fatalf("survivors = %+v, want the hit entry", es)
	}
	if !es[0].LastUsed.Equal(base.Add(70 * time.Millisecond)) {
		t.Errorf("LastUsed = %v, want the time of the sweep that saw the hit", es[0].LastUsed)
	}
	// No hit since: it expires once its idle timeout has passed.
	if n := ft.Sweep(base.Add(130 * time.Millisecond)); n != 1 {
		t.Errorf("idle entry survived: evicted %d", n)
	}
}
