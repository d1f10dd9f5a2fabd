package core

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"netdiversity/internal/netmodel"
)

// rejoinDelta removes a host and adds it back, wired to fresh neighbours, in
// one batch: its old variables are tombstoned and new ones appended, while the
// host ID never leaves the assignment.
func rejoinDelta(net *netmodel.Network, rng *rand.Rand) netmodel.Delta {
	services, choices := streamCatalogue()
	hosts := net.Hosts()
	id := hosts[rng.Intn(len(hosts))]
	d := netmodel.Delta{Ops: []netmodel.DeltaOp{
		{Op: netmodel.OpRemoveHost, ID: id},
		{Op: netmodel.OpAddHost, Host: &netmodel.HostSpec{ID: id, Zone: "synthetic", Services: services, Choices: choices}},
	}}
	for k := 0; k < 3; k++ {
		if nb := hosts[rng.Intn(len(hosts))]; nb != id {
			d.Ops = append(d.Ops, netmodel.DeltaOp{Op: netmodel.OpAddEdge, A: id, B: nb})
		}
	}
	return d
}

// TestDeltaStreamDerivedEqualsDecoded is the differential test of the commit
// half of the delta path.  Over 300 mixed steps — nudges, the five structural
// actions of the churn workload, a host leaving and re-joining in one batch,
// tombstone rebuilds, cancelled re-solves healed by the next one, an
// assignment restored mid-stream — it holds the O(dirty) forms against the
// full walks they replace, at every step:
//
//   - the warm labels kept on the problem equal encodeWarm(previous assignment);
//   - the derived assignment equals, and hashes like, problem.decode(labels);
//   - DiffHosts/ChangedHosts answered from the derivation record equal the
//     full walk over both assignments.
func TestDeltaStreamDerivedEqualsDecoded(t *testing.T) {
	net, sim := streamFixture(t, 120)
	opt := streamOptimizer(t, net, sim, "trws")
	if _, err := opt.Optimize(context.Background()); err != nil {
		t.Fatal(err)
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()

	rng := rand.New(rand.NewSource(17))
	derived, rebuilds, healed := 0, 0, 0
	for step := 1; step <= 300; step++ {
		var d netmodel.Delta
		switch {
		case step%23 == 0:
			d = rejoinDelta(opt.net, rng)
		case rng.Intn(3) == 0:
			d = nudgeDelta(opt.net, rng)
		default:
			d = structuralDelta(opt.net, rng, step)
		}
		if err := opt.ApplyDelta(d); err != nil {
			t.Fatalf("step %d: ApplyDelta(%+v): %v", step, d, err)
		}
		if step%41 == 0 {
			// A restored assignment drops the kept labels; the next solve
			// must take the full encodeWarm/decode path and re-arm.
			a, energy, _ := opt.Snapshot()
			opt.RestoreAssignment(a.Clone(), energy)
		}
		if step%29 == 0 {
			// A re-solve that dies mid-way must leave everything the next one
			// needs: same solution, same labels, same dirty bookkeeping.
			before := opt.LastAssignment()
			if _, err := opt.Reoptimize(cancelled); err != nil {
				healed++
				if opt.LastAssignment() != before {
					t.Fatalf("step %d: a cancelled Reoptimize replaced the solution", step)
				}
			}
		}

		p, prev := opt.prob, opt.LastAssignment()
		if got, want := p.encodeWarm(prev, p.lastLabels), p.encodeWarm(prev, nil); !slices.Equal(got, want) {
			t.Fatalf("step %d: warm labels differ from encodeWarm(previous assignment)\n got %v\nwant %v", step, got, want)
		}
		viaLabels := p.lastLabels != nil
		res, err := opt.Reoptimize(context.Background())
		if err != nil {
			t.Fatalf("step %d: Reoptimize: %v", step, err)
		}
		if !res.Incremental {
			t.Fatalf("step %d: re-solve was not incremental", step)
		}
		if res.Rebuilt {
			rebuilds++
		}
		if viaLabels {
			derived++
		}
		if opt.prob != p || p.lastLabels == nil {
			t.Fatalf("step %d: the solve did not leave its labels on the problem", step)
		}

		cur := res.Assignment
		if snap, _, _ := opt.Snapshot(); snap != cur {
			t.Fatalf("step %d: Snapshot is not the assignment the solve returned", step)
		}
		decoded, err := p.decode(p.lastLabels)
		if err != nil {
			t.Fatal(err)
		}
		if !cur.Equal(decoded) || cur.Hash() != decoded.Hash() {
			t.Fatalf("step %d: derived assignment differs from decode(labels)\n%v", step, cur.Diff(decoded))
		}
		if err := cur.ValidateFor(opt.net); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		// decoded carries no derivation record, so it walks in full.
		fastC, fastR := cur.DiffHosts(prev)
		fullC, fullR := decoded.DiffHosts(prev)
		if fmt.Sprint(fastC) != fmt.Sprint(fullC) || !slices.Equal(fastR, fullR) {
			t.Fatalf("step %d: DiffHosts via the derivation record\n %v %v\nfull walk\n %v %v", step, fastC, fastR, fullC, fullR)
		}
		if fast, full := cur.ChangedHosts(prev), decoded.ChangedHosts(prev); fast != full {
			t.Fatalf("step %d: ChangedHosts %d via the derivation record, %d by the full walk", step, fast, full)
		}
		if replay := prev.With(fastC, fastR); replay.Hash() != cur.Hash() {
			t.Fatalf("step %d: the journaled diff does not replay to the new assignment", step)
		}
	}
	if derived < 250 || rebuilds == 0 || healed == 0 {
		t.Fatalf("stream exercised %d derived steps, %d rebuilds, %d cancelled solves; want >= 250, > 0, > 0", derived, rebuilds, healed)
	}
}

// TestDuplicateCandidatesKeepWarmLabelsCanonical covers the one case in which
// a label is not determined by its product: a host that lists a candidate
// twice.  A randomised solver can then return the later of two equal labels;
// the kept labels must fold onto the first occurrence exactly as encodeWarm's
// look-up does, or a node that kept its labels and one that restored its
// assignment would warm-start differently.
func TestDuplicateCandidatesKeepWarmLabelsCanonical(t *testing.T) {
	net, sim := streamFixture(t, 30)
	services, choices := streamCatalogue()
	doubled := make(map[netmodel.ServiceID][]netmodel.ProductID, len(choices))
	for s, ps := range choices {
		doubled[s] = append(append([]netmodel.ProductID{ps[1]}, ps...), ps[2])
	}
	for _, id := range net.Hosts() {
		if err := net.UpdateHostServices(id, services, doubled, nil); err != nil {
			t.Fatal(err)
		}
	}
	opt := streamOptimizer(t, net, sim, "anneal")
	rng := rand.New(rand.NewSource(4))
	stray := false
	for step := 0; step <= 20; step++ {
		if step == 0 {
			if _, err := opt.Optimize(context.Background()); err != nil {
				t.Fatal(err)
			}
		} else {
			if err := opt.ApplyDelta(nudgeDelta(opt.net, rng)); err != nil {
				t.Fatal(err)
			}
			if _, err := opt.Reoptimize(context.Background()); err != nil {
				t.Fatal(err)
			}
		}
		p, cur := opt.prob, opt.LastAssignment()
		if got, want := p.encodeWarm(cur, p.lastLabels), p.encodeWarm(cur, nil); !slices.Equal(got, want) {
			t.Fatalf("step %d: kept labels differ from encodeWarm(assignment)\n got %v\nwant %v", step, got, want)
		}
		decoded, _ := p.decode(p.lastLabels)
		if !cur.Equal(decoded) {
			t.Fatalf("step %d: assignment differs from decode(labels)", step)
		}
		for i, l := range p.lastLabels {
			stray = stray || candidateIndex(p.candidates[i], p.candidates[i][l]) != l
		}
	}
	if stray {
		t.Fatal("kept a label that is not the first occurrence of its product")
	}
}

// TestReoptimizeAllocationGate is the machine-independent gate on the commit
// half of a delta: a steady-state nudge on a 6000-host session — apply,
// re-solve, snapshot, hash — must not allocate in proportion to the tenant.
// Before the labels and kernels were retained it cost 14.3 MB per delta; the
// bound is 4 MB, for the flat and the multilevel solver alike.
func TestReoptimizeAllocationGate(t *testing.T) {
	if testing.Short() {
		t.Skip("solves two 6000-host networks cold")
	}
	const rounds, boundMB = 20, 4.0
	for _, solver := range []string{"trws", "multilevel"} {
		net, sim := streamFixture(t, 6000)
		opt := streamOptimizer(t, net, sim, solver)
		if _, err := opt.Optimize(context.Background()); err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(9))
		nudge := func() string {
			if err := opt.ApplyDelta(nudgeDelta(opt.net, rng)); err != nil {
				t.Fatal(err)
			}
			if res, err := opt.Reoptimize(context.Background()); err != nil || !res.Incremental {
				t.Fatalf("%s: Reoptimize: incremental=%v err=%v", solver, res.Incremental, err)
			}
			a, _, _ := opt.Snapshot()
			return a.Hash()
		}
		for i := 0; i < 3; i++ {
			nudge() // the first deltas size the retained buffers
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < rounds; i++ {
			nudge()
		}
		runtime.ReadMemStats(&after)
		perOp := float64(after.TotalAlloc-before.TotalAlloc) / rounds / (1 << 20)
		t.Logf("%s: %.2f MB and %d allocations per delta", solver, perOp, (after.Mallocs-before.Mallocs)/rounds)
		if perOp > boundMB {
			t.Errorf("%s: a nudge on 6000 hosts allocates %.2f MB, the gate is %.0f MB", solver, perOp, boundMB)
		}
	}
}
