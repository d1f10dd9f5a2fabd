package core

import (
	"context"
	"testing"

	"netdiversity/internal/netmodel"
)

// TestSnapshot pins the serving-layer contract: Snapshot returns the
// optimiser's sealed, immutable solution — absent before the first solve,
// equal to what the solve returned, impossible to mutate (a mutator panics, a
// Clone is independent) and never touched by later re-optimisations, which is
// what lets a serving layer publish it to concurrent readers without a copy.
func TestSnapshot(t *testing.T) {
	net, sim := churnFixture(t, 20, 4)
	opt, err := NewOptimizer(net, sim, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ok := opt.Snapshot(); ok {
		t.Fatal("snapshot available before first solve")
	}

	res, err := opt.Optimize(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	snap, energy, ok := opt.Snapshot()
	if !ok {
		t.Fatal("snapshot unavailable after solve")
	}
	if energy != res.Energy {
		t.Fatalf("snapshot energy %v, want %v", energy, res.Energy)
	}
	if !snap.Equal(res.Assignment) {
		t.Fatal("snapshot differs from the solved assignment")
	}

	// The snapshot is sealed: every mutator panics instead of corrupting the
	// state the optimiser and concurrent readers share.
	hosts := snap.Hosts()
	first := hosts[0]
	before := snap.Hash()
	for name, mutate := range map[string]func(){
		"Set":        func() { snap.Set(first, "s1", "poisoned") },
		"SetHost":    func() { snap.SetHost(first, map[netmodel.ServiceID]netmodel.ProductID{"s1": "poisoned"}) },
		"RemoveHost": func() { snap.RemoveHost(first) },
		"ApplyPatch": func() { snap.ApplyPatch(nil, []netmodel.HostID{first}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on a snapshot did not panic", name)
				}
			}()
			mutate()
		}()
	}
	if err := snap.UnmarshalJSON([]byte(`{"hosts":{}}`)); err == nil {
		t.Error("UnmarshalJSON into a snapshot did not fail")
	}
	// Clone is the way to edit, and the edit does not leak back.
	edited := snap.Clone()
	for svc := range edited.HostAssignment(first) {
		edited.Set(first, svc, "poisoned")
	}
	if edited.Equal(snap) {
		t.Fatal("Clone shares state with the snapshot")
	}
	again, _, _ := opt.Snapshot()
	if again.Hash() != before || !again.Equal(res.Assignment) {
		t.Fatal("served assignment was corrupted through a snapshot")
	}

	// A delta + re-optimise produces a fresh snapshot for the new state.
	victim := hosts[len(hosts)-1]
	if err := opt.ApplyDelta(netmodel.Delta{Ops: []netmodel.DeltaOp{
		{Op: netmodel.OpRemoveHost, ID: victim},
	}}); err != nil {
		t.Fatal(err)
	}
	if _, err := opt.Reoptimize(context.Background()); err != nil {
		t.Fatal(err)
	}
	after, _, ok := opt.Snapshot()
	if !ok {
		t.Fatal("snapshot unavailable after reoptimize")
	}
	if _, found := after.Get(victim, netmodel.ServiceID("s1")); found {
		t.Fatal("snapshot still assigns the removed host")
	}
	// What serve relies on: the snapshot taken before the delta is a value,
	// not a view — it still holds the victim and hashes to its old value, while
	// the new snapshot differs.
	if _, found := snap.Get(victim, netmodel.ServiceID("s1")); !found {
		t.Fatal("re-optimisation removed a host from an earlier snapshot")
	}
	if got := snap.Hash(); got != before {
		t.Fatalf("earlier snapshot hashes to %s after a re-optimisation, was %s", got, before)
	}
	if after.Hash() == before {
		t.Fatal("snapshot after the delta hashes like the one before it")
	}
}
