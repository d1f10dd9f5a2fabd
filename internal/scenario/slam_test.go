package scenario

import (
	"context"
	"testing"
	"time"

	"netdiversity/internal/slam"
)

// slamCell expands a one-cell slam matrix over a tiny network.
func slamCell(t *testing.T, profile string, seed int64) Cell {
	t.Helper()
	cells, err := Expand(Matrix{
		Name:          "slam-test",
		Hosts:         []int{12},
		Degrees:       []int{4},
		Services:      []int{2},
		Solvers:       []string{"icm"},
		Attacks:       []string{"none"},
		SlamProfiles:  []string{profile},
		MaxIterations: 10,
		Seed:          seed,
		Timeout:       time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 1 || cells[0].SlamProfile != profile {
		t.Fatalf("expansion: %+v", cells)
	}
	return cells[0]
}

// execSlam runs a slam cell end to end and returns its load-phase result.
func execSlam(t *testing.T, c Cell) *slam.RunResult {
	t.Helper()
	net, sim, err := BuildNetwork(c)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Exec(context.Background(), net, sim, c)
	if err != nil {
		t.Fatal(err)
	}
	if out.Slam == nil {
		t.Fatalf("slam phase not recorded: %+v", out.Measurement)
	}
	return out.Slam
}

// TestSlamCell runs the base slam cell end to end: the closed-loop
// multi-tenant run against an in-process divd must come back as the
// RunResult divslam reports — the profile's fixed shape, a clean error
// count, ordered quantiles, the heap sample — with the histogram buckets
// stripped.
func TestSlamCell(t *testing.T) {
	res := execSlam(t, slamCell(t, SlamProfileBase, 3))
	shape := slamShapes[SlamProfileBase]
	if res.Config.Tenants != shape.tenants || res.Config.Workers != shape.workers || res.Total.Count != int64(shape.ops) {
		t.Fatalf("slam shape not recorded: %+v", res)
	}
	if res.Total.Errors != 0 {
		t.Fatalf("slam run had %d errors", res.Total.Errors)
	}
	if res.AchievedRPS <= 0 || res.SetupMS <= 0 {
		t.Fatalf("slam throughput fields not populated: %+v", res)
	}
	read, delta := res.Ops[slam.OpRead], res.Ops[slam.OpDelta]
	if read.P99MS <= 0 || delta.P99MS <= 0 || res.Total.P999MS <= 0 {
		t.Fatalf("slam latency fields not populated: %+v", res)
	}
	if read.P50MS > read.P99MS || delta.P50MS > delta.P99MS {
		t.Fatalf("slam quantiles out of order: %+v", res)
	}
	if res.Mem == nil || res.Mem.AllocBytesPerOp <= 0 {
		t.Fatalf("slam heap sample missing: %+v", res.Mem)
	}
	if res.Total.Buckets != nil || read.Buckets != nil {
		t.Fatal("histogram buckets must be stripped from a BENCH cell")
	}
}

// TestSlamMatrixDefaults pins that SlamProfiles alone switches the slam phase
// on, and that report metadata records it, so slam baselines are never
// diffed against non-slam runs of the same axes.
func TestSlamMatrixDefaults(t *testing.T) {
	cells, err := Expand(Matrix{Name: "quick"})
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 1 || cells[0].SlamProfile != "" {
		t.Fatalf("a matrix without SlamProfiles must expand to slam-free cells: %+v", cells)
	}
	if rep := NewReport(Matrix{Name: "quick"}); rep.Matrix.SlamProfiles != nil {
		t.Fatalf("slam metadata set on a non-slam matrix: %+v", rep.Matrix)
	}
	rep := NewReport(Matrix{Name: "slam", SlamProfiles: []string{SlamProfileBase}})
	if len(rep.Matrix.SlamProfiles) != 1 || rep.Matrix.SlamProfiles[0] != SlamProfileBase {
		t.Fatalf("slam metadata: %+v", rep.Matrix)
	}
}

// TestSlamProfileExpansion pins the profile axis: the base profile keeps
// the plain cell ID, every other profile gets its own suffixed ID (hence its
// own derived seed), and the contended shape oversubscribes the writer slots
// with a delta-heavy mix.
func TestSlamProfileExpansion(t *testing.T) {
	cells, err := Expand(Matrix{
		Name:         "slam",
		Hosts:        []int{50},
		Solvers:      []string{"trws"},
		Attacks:      []string{"none"},
		SlamProfiles: []string{SlamProfileBase, SlamProfileContended, SlamProfileReplica},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 3 {
		t.Fatalf("expected 3 cells, got %d", len(cells))
	}
	for i, want := range []string{
		"uniform/h50/d8/s3/trws/none",
		"uniform/h50/d8/s3/trws/none/slam-contended",
		"uniform/h50/d8/s3/trws/none/slam-replica",
	} {
		if cells[i].ID != want {
			t.Errorf("cell %d ID %q, want %q", i, cells[i].ID, want)
		}
	}
	if cells[0].Seed == cells[1].Seed || cells[1].Seed == cells[2].Seed {
		t.Fatal("profiles must derive distinct cell seeds")
	}
	if base := slamShapes[SlamProfileBase]; base.mix != "" || base.replica {
		t.Fatalf("base shape: %+v", base)
	}
	if cont := slamShapes[SlamProfileContended]; cont.workers <= cont.tenants || cont.mix == "" {
		t.Fatalf("contended shape must oversubscribe the writer slots with its own mix: %+v", cont)
	}
	if repl := slamShapes[SlamProfileReplica]; !repl.replica || repl.mix == "" {
		t.Fatalf("replica shape: %+v", repl)
	}
	if _, err := Expand(Matrix{Name: "slam", SlamProfiles: []string{"bogus"}}); err == nil {
		t.Fatal("unknown slam profile accepted")
	}
}

// TestSlamReplicaProfile runs the replica cell end to end: a
// primary/follower pair serves the load with the follower answering reads,
// and the measurement comes back with a clean error count.
func TestSlamReplicaProfile(t *testing.T) {
	c := slamCell(t, SlamProfileReplica, 5)
	if c.ID != "uniform/h12/d4/s2/icm/none/slam-replica" {
		t.Fatalf("replica cell ID: %q", c.ID)
	}
	res := execSlam(t, c)
	if !res.Config.ReplicaReads {
		t.Fatalf("replica reads not configured: %+v", res.Config)
	}
	if res.Total.Errors != 0 {
		t.Fatalf("replica slam run had %d errors", res.Total.Errors)
	}
	if res.Ops[slam.OpRead].P99MS <= 0 || res.Ops[slam.OpDelta].P99MS <= 0 {
		t.Fatalf("replica latency fields not populated: %+v", res)
	}
}

// TestSlamGraphDirectRejected verifies the slam phase cannot be combined with
// graph-direct matrices: those cells have no network model to serve.
func TestSlamGraphDirectRejected(t *testing.T) {
	_, err := Expand(Matrix{
		Name:         "bad",
		Hosts:        []int{100},
		Solvers:      []string{"trws"},
		Attacks:      []string{"none"},
		GraphDirect:  true,
		SlamProfiles: []string{SlamProfileBase},
	})
	if err == nil {
		t.Fatal("graph-direct + slam accepted")
	}
}
