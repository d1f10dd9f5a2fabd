package serve

import (
	"context"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"
)

// simulateJob models one admitted solve: `units` work slices with a
// scheduler checkpoint between them, exactly the shape the solve driver
// gives real solves via core.Options.Checkpoint.
func simulateJob(t *testing.T, s *scheduler, cost float64, units int, unit time.Duration) time.Duration {
	t.Helper()
	start := time.Now()
	g, err := s.acquire(context.Background(), cost)
	if err != nil {
		t.Errorf("acquire(cost=%v): %v", cost, err)
		return 0
	}
	defer g.release()
	for u := 0; u < units; u++ {
		time.Sleep(unit)
		if err := g.checkpoint(context.Background()); err != nil {
			t.Errorf("checkpoint: %v", err)
			return 0
		}
	}
	return time.Since(start)
}

// runSmallFleet submits `n` small-tenant jobs at a fixed arrival spacing and
// returns their completion latencies (acquire wait + work + yields).
func runSmallFleet(t *testing.T, s *scheduler, n int) []time.Duration {
	t.Helper()
	var (
		mu        sync.Mutex
		latencies []time.Duration
		wg        sync.WaitGroup
	)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			d := simulateJob(t, s, 1000, 10, time.Millisecond)
			mu.Lock()
			latencies = append(latencies, d)
			mu.Unlock()
		}()
		time.Sleep(5 * time.Millisecond)
	}
	wg.Wait()
	return latencies
}

// waitFor spins until cond, evaluated under the scheduler's lock, holds: the
// tests order their goroutines by what the scheduler has seen, never by
// sleeping and hoping.
func waitFor(s *scheduler, cond func() bool) {
	for {
		s.mu.Lock()
		ok := cond()
		s.mu.Unlock()
		if ok {
			return
		}
		runtime.Gosched()
	}
}

func p99(latencies []time.Duration) time.Duration {
	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	idx := len(latencies) * 99 / 100
	if idx >= len(latencies) {
		idx = len(latencies) - 1
	}
	return latencies[idx]
}

// TestSchedulerFairnessUnderMixedLoad is the acceptance check for the
// priority/aging scheduler: with one slot, a 100k-host-cost solve in flight
// and 50 small (1k-cost) tenants arriving must see a p99 completion latency
// within 2x of the same 50-tenant workload run without the big solve.  The
// pre-scheduler semaphore pool fails this by construction — FIFO admission
// parks every small tenant behind the entire big solve.
func TestSchedulerFairnessUnderMixedLoad(t *testing.T) {
	const smallTenants = 50

	solo := p99(runSmallFleet(t, newScheduler(1), smallTenants))

	s := newScheduler(1)
	bigDone := make(chan struct{})
	go func() {
		defer close(bigDone)
		// 100k-cost solve: 400 one-millisecond schedulable units.
		simulateJob(t, s, 100000, 400, time.Millisecond)
	}()
	// Let the big solve win the idle slot before the fleet arrives.
	time.Sleep(10 * time.Millisecond)
	mixed := p99(runSmallFleet(t, s, smallTenants))
	<-bigDone

	t.Logf("small-tenant p99: solo=%v mixed=%v ratio=%.2f", solo, mixed, float64(mixed)/float64(solo))
	if mixed > 2*solo {
		t.Errorf("mixed-load p99 %v exceeds 2x solo p99 %v", mixed, solo)
	}
}

// TestSchedulerPrefersCheapJobs pins the admission order: with the single
// slot held, a cheap job queued after an expensive one must still win the
// next dispatch.
func TestSchedulerPrefersCheapJobs(t *testing.T) {
	s := newScheduler(1)
	hold, err := s.acquire(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}

	order := make(chan string, 2)
	var wg sync.WaitGroup
	launch := func(name string, cost float64) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			g, err := s.acquire(context.Background(), cost)
			if err != nil {
				t.Errorf("acquire %s: %v", name, err)
				return
			}
			order <- name
			g.release()
		}()
	}
	launch("big", 100000)
	waitFor(s, func() bool { return len(s.pending) == 1 }) // big queues first and starts aging
	launch("small", 1000)
	waitFor(s, func() bool { return len(s.pending) == 2 }) // both queued before the slot frees
	hold.release()
	wg.Wait()
	if first := <-order; first != "small" {
		t.Errorf("dispatch order: %s won the slot first, want small", first)
	}
}

// TestSchedulerAgingPreventsStarvation verifies the other half of the
// fairness contract: under a continuous stream of cheap arrivals, the
// expensive job's aging discount eventually outranks fresh cheap jobs.
func TestSchedulerAgingPreventsStarvation(t *testing.T) {
	s := newScheduler(1)
	bigDone := make(chan struct{})
	go func() {
		defer close(bigDone)
		simulateJob(t, s, 50000, 1, time.Millisecond)
	}()
	// The big job holds the slot (or has already run and released it).
	waitFor(s, func() bool {
		select {
		case <-bigDone:
			return true
		default:
			return s.free == 0
		}
	})
	// Cheap jobs keep arriving for far longer than the big job needs.
	deadline := time.After(5 * time.Second)
	for {
		select {
		case <-bigDone:
			return
		case <-deadline:
			t.Fatal("expensive job starved by a stream of cheap arrivals")
		default:
			simulateJob(t, s, 10, 1, 100*time.Microsecond)
		}
	}
}

// TestSchedulerCheckpointYields pins the preemption mechanics: a running
// expensive job must hand its slot to a queued cheap job at the next
// checkpoint, then resume and finish.
func TestSchedulerCheckpointYields(t *testing.T) {
	s := newScheduler(1)
	big, err := s.acquire(context.Background(), 100000)
	if err != nil {
		t.Fatal(err)
	}

	smallRan := make(chan struct{})
	go func() {
		g, err := s.acquire(context.Background(), 100)
		if err != nil {
			t.Errorf("small acquire: %v", err)
			return
		}
		close(smallRan)
		g.release()
	}()

	// Wait until the small job is queued, then checkpoint: the big job must
	// yield, the small job runs, and checkpoint returns after the re-grant.
	waitFor(s, func() bool { return len(s.pending) > 0 })
	if err := big.checkpoint(context.Background()); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	select {
	case <-smallRan:
	case <-time.After(2 * time.Second):
		t.Fatal("queued cheap job never ran across the big job's checkpoint")
	}
	big.release()
}

// TestSchedulerAcquireHonoursContext verifies queued jobs respect deadlines.
func TestSchedulerAcquireHonoursContext(t *testing.T) {
	s := newScheduler(1)
	hold, err := s.acquire(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := s.acquire(ctx, 1); err != context.DeadlineExceeded {
		t.Fatalf("queued acquire returned %v, want context.DeadlineExceeded", err)
	}
	s.mu.Lock()
	if n := len(s.pending); n != 0 {
		t.Errorf("cancelled job left %d entries in the queue", n)
	}
	s.mu.Unlock()
	hold.release()
	// The slot must still be usable after the cancelled wait.
	g, err := s.acquire(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	g.release()
}
