package scenario

import (
	"context"
	"fmt"
	"hash/fnv"
	"math/rand"
	"runtime"
	"strconv"
	"strings"
	"time"

	"netdiversity/internal/core"
	"netdiversity/internal/netgen"
	"netdiversity/internal/netmodel"
	"netdiversity/internal/vulnsim"
)

// The churn axis stress-tests the incremental re-optimisation engine: a cell
// with churn first solves its network cold, then replays a deterministic
// stream of network deltas (host joins/leaves, service upgrades) through
// core.ApplyDelta + Reoptimize, and after every step also re-solves the
// mutated network from scratch.  The measurement compares the two paths:
// summed wall-clock, the worst per-step energy gap, and how much of the
// assignment each step disturbed.

// defaultChurnSteps is the number of deltas in a generated churn stream.
const defaultChurnSteps = 5

// ChurnSpec describes one churn-axis value.
type ChurnSpec struct {
	// Name is the axis value as written in the matrix ("none", "hosts5",
	// "svc10", "mixed5").
	Name string
	// HostPct is the fraction of hosts churned across the whole stream
	// (half leave, half join).
	HostPct float64
	// ServicePct is the fraction of hosts receiving a service (preference)
	// upgrade across the stream.
	ServicePct float64
	// Steps is the number of deltas the events are spread over.
	Steps int
}

// None reports whether the spec disables churn.
func (c ChurnSpec) None() bool { return c.HostPct == 0 && c.ServicePct == 0 }

// String returns the axis value name.
func (c ChurnSpec) String() string {
	if c.Name == "" {
		return "none"
	}
	return c.Name
}

// ChurnNames lists example churn-axis values accepted by ParseChurn.
func ChurnNames() []string {
	return []string{"none", "hosts5", "svc10", "mixed5"}
}

// ParseChurn converts a churn-axis name into a spec.  The accepted forms are
// "none", "hosts<N>", "svc<N>" and "mixed<N>" where N is the churn
// percentage over the whole stream (1..50).
func ParseChurn(name string) (ChurnSpec, error) {
	trimmed := strings.ToLower(strings.TrimSpace(name))
	if trimmed == "" || trimmed == "none" {
		return ChurnSpec{Name: "none"}, nil
	}
	for _, prefix := range []string{"hosts", "svc", "mixed"} {
		if !strings.HasPrefix(trimmed, prefix) {
			continue
		}
		n, err := strconv.Atoi(trimmed[len(prefix):])
		if err != nil || n < 1 || n > 50 {
			return ChurnSpec{}, fmt.Errorf("scenario: churn %q needs a percentage 1..50 after %q", name, prefix)
		}
		spec := ChurnSpec{Name: trimmed, Steps: defaultChurnSteps}
		pct := float64(n) / 100
		switch prefix {
		case "hosts":
			spec.HostPct = pct
		case "svc":
			spec.ServicePct = pct
		case "mixed":
			spec.HostPct, spec.ServicePct = pct, pct
		}
		return spec, nil
	}
	return ChurnSpec{}, fmt.Errorf("scenario: unknown churn %q (examples: %v)", name, ChurnNames())
}

// churnSeed derives the event-stream seed from the cell seed so that the
// stream is independent of the solver axis ordering.
func churnSeed(cellSeed int64) int64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte("churn"))
	return cellSeed ^ int64(h.Sum64()&0x7fffffffffffffff)
}

// hostShape is the generator's snapshot of a live host's service catalogue.
type hostShape struct {
	services []netmodel.ServiceID
	choices  map[netmodel.ServiceID][]netmodel.ProductID
}

// GenerateChurn builds the deterministic delta stream of a cell against its
// generated network: host leaves, host joins (wired into the surviving
// topology with the cell's synthetic catalogue) and service upgrades
// (preference changes), spread over ChurnSpec.Steps deltas.  The stream
// depends only on the churn spec, the cell's instance seed and the
// network's host list, so a measurement can always be reproduced.
func GenerateChurn(net *netmodel.Network, c Cell) ([]netmodel.Delta, error) {
	spec := c.Churn
	if spec.None() {
		return nil, nil
	}
	steps := spec.Steps
	if steps <= 0 {
		steps = defaultChurnSteps
	}
	rng := rand.New(rand.NewSource(churnSeed(c.instanceSeed())))

	live := net.Hosts()
	shapes := make(map[netmodel.HostID]hostShape, len(live))
	for _, id := range live {
		h, _ := net.Host(id)
		shapes[id] = hostShape{services: h.Services, choices: h.Choices}
	}

	hostEvents := int(spec.HostPct*float64(len(live)) + 0.5)
	leaves := hostEvents / 2
	joins := hostEvents - leaves
	upgrades := int(spec.ServicePct*float64(len(live)) + 0.5)
	total := leaves + joins + upgrades
	if total == 0 {
		return nil, nil
	}

	// The synthetic catalogue shared by every generated topology.
	catalogue := hostShape{choices: make(map[netmodel.ServiceID][]netmodel.ProductID, c.Services)}
	for s := 0; s < c.Services; s++ {
		sid := netgen.ServiceName(s)
		catalogue.services = append(catalogue.services, sid)
		for p := 0; p < c.ProductsPerService; p++ {
			catalogue.choices[sid] = append(catalogue.choices[sid], netgen.ProductName(s, p))
		}
	}

	pickLive := func() (netmodel.HostID, bool) {
		if len(live) == 0 {
			return "", false
		}
		return live[rng.Intn(len(live))], true
	}
	removeLive := func(id netmodel.HostID) {
		for i, h := range live {
			if h == id {
				live = append(live[:i], live[i+1:]...)
				break
			}
		}
		delete(shapes, id)
	}

	deltas := make([]netmodel.Delta, steps)
	joined := 0
	for e := 0; e < total; e++ {
		step := e * steps / total
		d := &deltas[step]
		// Draw the event kind from the remaining quotas so the interleaving
		// is deterministic but mixed.
		kind := rng.Intn(leaves + joins + upgrades)
		switch {
		case kind < leaves:
			leaves--
			id, ok := pickLive()
			if !ok {
				continue
			}
			d.Ops = append(d.Ops, netmodel.DeltaOp{Op: netmodel.OpRemoveHost, ID: id})
			removeLive(id)
		case kind < leaves+joins:
			joins--
			joined++
			id := netmodel.HostID(fmt.Sprintf("cjoin%d", joined))
			spec := netmodel.HostSpec{ID: id, Zone: "churn", Services: catalogue.services, Choices: catalogue.choices}
			d.Ops = append(d.Ops, netmodel.DeltaOp{Op: netmodel.OpAddHost, Host: &spec})
			// Wire the joiner to up to Degree distinct live hosts.
			wired := make(map[netmodel.HostID]bool)
			for len(wired) < c.Degree && len(wired) < len(live) {
				nb, ok := pickLive()
				if !ok || wired[nb] {
					continue
				}
				wired[nb] = true
				d.Ops = append(d.Ops, netmodel.DeltaOp{Op: netmodel.OpAddEdge, A: id, B: nb})
			}
			live = append(live, id)
			shapes[id] = catalogue
		default:
			upgrades--
			id, ok := pickLive()
			if !ok {
				continue
			}
			shape := shapes[id]
			s := shape.services[rng.Intn(len(shape.services))]
			cands := shape.choices[s]
			pref := map[netmodel.ServiceID]map[netmodel.ProductID]float64{
				s: {cands[rng.Intn(len(cands))]: 0.9},
			}
			d.Ops = append(d.Ops, netmodel.DeltaOp{Op: netmodel.OpUpdateHostServices, ID: id,
				Services: shape.services, Choices: shape.choices, Preference: pref})
		}
	}
	// Drop empty steps (possible when total < steps).
	out := deltas[:0]
	for _, d := range deltas {
		if !d.Empty() {
			out = append(out, d)
		}
	}
	return out, nil
}

// churnMetrics aggregates the incremental-vs-full comparison of one cell.
type churnMetrics struct {
	steps         int
	incrementalMS float64
	fullMS        float64
	maxGapPct     float64
	changedFrac   float64
	finalEnergy   float64
	// Work counters of the incremental path, summed over the steps.
	dirtyNodes int
	iterations int
	allocBytes uint64
}

// runChurn replays the delta stream through the incremental engine and,
// after every step, re-solves the mutated network from scratch with the same
// options.  opt is the cell's already-solved optimizer (it owns the network,
// which is mutated in place); sim is the cell's similarity table.
func runChurn(ctx context.Context, opt *core.Optimizer, net *netmodel.Network, sim *vulnsim.SimilarityTable, deltas []netmodel.Delta, opts core.Options) (churnMetrics, error) {
	var m churnMetrics
	var memPre, memPost runtime.MemStats
	prev := opt.LastAssignment()
	for _, d := range deltas {
		// The incremental timer and allocation window cover the whole step
		// the engine pays for a delta: the in-place patch (including a
		// possible compacting rebuild) plus the warm re-solve.
		runtime.ReadMemStats(&memPre)
		start := time.Now()
		if err := opt.ApplyDelta(d); err != nil {
			return m, fmt.Errorf("churn step %d: apply: %w", m.steps, err)
		}
		inc, err := opt.Reoptimize(ctx)
		if err != nil {
			return m, fmt.Errorf("churn step %d: reoptimize: %w", m.steps, err)
		}
		m.incrementalMS += float64(time.Since(start)) / float64(time.Millisecond)
		runtime.ReadMemStats(&memPost)
		m.allocBytes += memPost.TotalAlloc - memPre.TotalAlloc
		m.dirtyNodes += inc.DirtyNodes
		m.iterations += inc.Iterations

		// The honest non-incremental baseline: build + cold solve of the
		// mutated network, exactly what a batch system would redo per change.
		start = time.Now()
		fullOpt, err := core.NewOptimizer(net.Clone(), sim, opts)
		if err != nil {
			return m, err
		}
		full, err := fullOpt.Optimize(ctx)
		if err != nil {
			return m, fmt.Errorf("churn step %d: full re-solve: %w", m.steps, err)
		}
		m.fullMS += float64(time.Since(start)) / float64(time.Millisecond)

		gap := 0.0
		if full.Energy != 0 {
			gap = (inc.Energy - full.Energy) / abs(full.Energy) * 100
		}
		if m.steps == 0 || gap > m.maxGapPct {
			m.maxGapPct = gap
		}
		m.changedFrac += assignmentChangedFrac(prev, inc.Assignment)
		prev = inc.Assignment
		m.finalEnergy = inc.Energy
		m.steps++
	}
	if m.steps > 0 {
		m.changedFrac /= float64(m.steps)
	}
	return m, nil
}

// assignmentChangedFrac returns the fraction of hosts present in both
// assignments whose product set changed — the assignment-stability metric of
// the churn suite.
func assignmentChangedFrac(prev, cur *netmodel.Assignment) float64 {
	if prev == nil || cur == nil {
		return 0
	}
	common, changed := 0, 0
	for _, h := range prev.Hosts() {
		curHost := cur.HostAssignment(h)
		if len(curHost) == 0 {
			continue // host left
		}
		common++
		prevHost := prev.HostAssignment(h)
		if len(prevHost) != len(curHost) {
			changed++
			continue
		}
		for s, p := range prevHost {
			if curHost[s] != p {
				changed++
				break
			}
		}
	}
	if common == 0 {
		return 0
	}
	return float64(changed) / float64(common)
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
