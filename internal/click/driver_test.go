package click

import (
	"context"
	"fmt"
	"strconv"
	"sync"
	"testing"
	"time"
)

// readCount reads a numeric handler or fails the test. It uses Errorf,
// not Fatalf, because callers invoke it from poller goroutines and
// Fatalf must only run on the test goroutine.
func readCount(t *testing.T, r *Router, spec string) uint64 {
	t.Helper()
	s, err := r.ReadHandler(spec)
	if err != nil {
		t.Errorf("ReadHandler(%s): %v", spec, err)
		return 0
	}
	n, err := strconv.ParseUint(s, 10, 64)
	if err != nil {
		t.Errorf("ReadHandler(%s) = %q: %v", spec, s, err)
		return 0
	}
	return n
}

// waitFor polls cond until it holds or the deadline expires.
func waitFor(t *testing.T, d time.Duration, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestConcurrentTrafficConserved drives a multi-element chain under the
// SingleThreaded driver while external goroutines inject packets and poll
// handlers. Run under -race this exercises the per-element locking model:
// source task, Unqueue task, ToDevice drain, handler reads and injected
// pushes all overlap. Packet conservation is asserted at the end.
func TestConcurrentTrafficConserved(t *testing.T) {
	const limit = 20000
	const injectors = 4
	const perInjector = 500

	out := NewChanDevice("out", 64)
	// Consume out frames forever so ToDevice never stalls.
	go func() {
		for range out.Out {
		}
	}()
	r, err := NewRouter("mt", fmt.Sprintf(`
		src :: InfiniteSource(LIMIT %d, BURST 32)
			-> c1 :: Counter
			-> q :: Queue(8192)
			-> u :: Unqueue(BURST 16)
			-> c2 :: Counter
			-> Queue(8192)
			-> ToDevice(out);
	`, limit), Options{
		Driver:  SingleThreaded,
		Devices: map[string]Device{"out": out},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go r.Run(ctx)

	var wg sync.WaitGroup
	for i := 0; i < injectors; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			frame := make([]byte, 64)
			for j := 0; j < perInjector; j++ {
				if err := r.InjectPush("c1", 0, NewPacket(frame)); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	// Handler readers run concurrently with the driver and injectors.
	stopPoll := make(chan struct{})
	var pollWG sync.WaitGroup
	for i := 0; i < 2; i++ {
		pollWG.Add(1)
		go func() {
			defer pollWG.Done()
			for {
				select {
				case <-stopPoll:
					return
				default:
				}
				readCount(t, r, "c1.count")
				readCount(t, r, "q.length")
				readCount(t, r, "c2.count")
			}
		}()
	}
	wg.Wait()

	total := uint64(limit + injectors*perInjector)
	waitFor(t, 20*time.Second, func() bool {
		return readCount(t, r, "c1.count") == total &&
			readCount(t, r, "c2.count")+readCount(t, r, "q.drops") == total
	}, "all packets to clear the chain")
	close(stopPoll)
	pollWG.Wait()
	cancel()
	r.Stop()

	if got := readCount(t, r, "c1.count"); got != total {
		t.Errorf("c1.count = %d, want %d", got, total)
	}
	if c2, drops := readCount(t, r, "c2.count"), readCount(t, r, "q.drops"); c2+drops != total {
		t.Errorf("conservation: c2.count(%d) + q.drops(%d) = %d, want %d", c2, drops, c2+drops, total)
	}
}

// TestDriverEquivalence runs the same source→queue→sink chain under both
// drivers and asserts packet conservation: every generated packet is
// either delivered or accounted as a queue tail drop. Under Fused the
// source and queue form a pipeline while Unqueue stays on the task loop.
func TestDriverEquivalence(t *testing.T) {
	const limit = 5000
	for _, mode := range []DriverMode{SingleThreaded, Fused} {
		t.Run(mode.String(), func(t *testing.T) {
			r, err := NewRouter("eq-"+mode.String(), fmt.Sprintf(`
				InfiniteSource(LIMIT %d) -> q :: Queue(1024) -> u :: Unqueue -> d :: Counter -> Discard;
			`, limit), Options{Driver: mode})
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			go r.Run(ctx)
			waitFor(t, 20*time.Second, func() bool {
				return readCount(t, r, "d.count")+readCount(t, r, "q.drops") == limit
			}, mode.String()+" to account for all packets")
			if mode == SingleThreaded {
				// The round-robin driver strictly interleaves source and
				// drain tasks, so the queue never overflows. A fused
				// pipeline may race ahead on the source side.
				if drops := readCount(t, r, "q.drops"); drops != 0 {
					t.Errorf("%s dropped %d packets", mode, drops)
				}
			}
			cancel()
			r.Stop()
		})
	}
}
