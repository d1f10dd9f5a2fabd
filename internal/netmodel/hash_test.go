package netmodel

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"testing"
)

// referenceHash is Assignment.Hash as it was written before it moved onto the
// delta ack path: hash/fnv fed through fmt, one sort.Slice per host.  WAL
// records and peer nodes hold values this function produced, so the live
// implementation must agree with it bit for bit, forever.
func referenceHash(a *Assignment) string {
	if a == nil {
		return ""
	}
	h := fnv.New64a()
	hosts := make([]HostID, 0, len(a.products))
	for host := range a.products {
		hosts = append(hosts, host)
	}
	sort.Slice(hosts, func(i, j int) bool { return hosts[i] < hosts[j] })
	for _, host := range hosts {
		m := a.products[host]
		services := make([]ServiceID, 0, len(m))
		for s := range m {
			services = append(services, s)
		}
		sort.Slice(services, func(i, j int) bool { return services[i] < services[j] })
		for _, svc := range services {
			fmt.Fprintf(h, "%s\x00%s\x00%s\n", host, svc, m[svc])
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// hashAlphabet deliberately contains the hash's own separators (NUL, LF),
// multi-byte runes and a byte that is invalid UTF-8 on its own.
var hashAlphabet = []string{"a", "b", "z", "0", "-", "\x00", "\n", "é", "✓", "\xff", " "}

func randomID(rng *rand.Rand) string {
	n := 1 + rng.Intn(6)
	s := ""
	for i := 0; i < n; i++ {
		s += hashAlphabet[rng.Intn(len(hashAlphabet))]
	}
	return s
}

func randomAssignment(rng *rand.Rand, hosts, maxServices int) *Assignment {
	a := NewAssignment()
	for h := 0; h < hosts; h++ {
		host := HostID(fmt.Sprintf("%s#%d", randomID(rng), h))
		for s, n := 0, 1+rng.Intn(maxServices); s < n; s++ {
			a.Set(host, ServiceID(randomID(rng)), ProductID(randomID(rng)))
		}
	}
	return a
}

func TestHashMatchesReference(t *testing.T) {
	if got := (*Assignment)(nil).Hash(); got != "" {
		t.Errorf("nil assignment hash = %q, want empty", got)
	}
	rng := rand.New(rand.NewSource(42))
	cases := []*Assignment{NewAssignment(), randomAssignment(rng, 1, 1)}
	for i := 0; i < 200; i++ {
		// 12 services overflows Hash's 8-entry stack buffer.
		cases = append(cases, randomAssignment(rng, rng.Intn(40), 1+rng.Intn(12)))
	}
	for i, a := range cases {
		if got, want := a.Hash(), referenceHash(a); got != want {
			t.Fatalf("case %d (%d hosts, %d pairs): Hash = %s, reference = %s\n%q", i, len(a.Hosts()), a.Len(), got, want, a.String())
		}
	}
}

// TestHashPinnedValues pins literal fingerprints printed by Assignment.Hash at
// the commit before the rewrite, so that the reference and the live code
// cannot drift together.
func TestHashPinnedValues(t *testing.T) {
	one := NewAssignment()
	one.Set("h1", "os", "win7")

	several := NewAssignment()
	several.Set("b", "web", "nginx")
	several.Set("b", "os", "linux")
	several.Set("b", "db", "pg")
	several.Set("a", "os", "win")

	hostile := NewAssignment()
	hostile.Set("h\x00x", "s\n", "prödukt✓")
	hostile.Set("h", "\x00x", "\n")

	grid := NewAssignment()
	for h := 0; h < 50; h++ {
		for s := 0; s < 3; s++ {
			grid.Set(HostID(fmt.Sprintf("h%03d", h)), ServiceID(fmt.Sprintf("s%d", s)), ProductID(fmt.Sprintf("p%d", (h*7+s*3)%4)))
		}
	}

	for _, tc := range []struct {
		name string
		a    *Assignment
		want string
	}{
		{"empty", NewAssignment(), "cbf29ce484222325"},
		{"one", one, "b07b09e50331538b"},
		{"several", several, "020dd0f7a65a4a17"},
		{"hostile", hostile, "5bc2afb988580e4e"},
		{"grid", grid, "a6597cfeee3c27e3"},
	} {
		if got := tc.a.Hash(); got != tc.want {
			t.Errorf("%s: Hash = %s, pinned %s", tc.name, got, tc.want)
		}
		if got := referenceHash(tc.a); got != tc.want {
			t.Errorf("%s: reference = %s, pinned %s", tc.name, got, tc.want)
		}
	}
}

var hashSink string

func BenchmarkAssignmentHash(b *testing.B) {
	for _, hosts := range []int{50, 6000} {
		a := NewAssignment()
		for h := 0; h < hosts; h++ {
			for s := 0; s < 3; s++ {
				a.Set(HostID(fmt.Sprintf("h%d", h)), ServiceID(fmt.Sprintf("s%d", s)), ProductID(fmt.Sprintf("p%d_%d", s, (h+s)%4)))
			}
		}
		a.Seal() // what the ack path hashes: the host order is already built
		b.Run(fmt.Sprintf("h%d", hosts), func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				hashSink = a.Hash()
			}
		})
	}
}

// referenceChangedHosts is the delta ack's changed-host count as the serving
// plane computed it before Assignment.ChangedHosts: sorted hosts, one map copy
// per host, one Get per pair.
func referenceChangedHosts(cur, prev *Assignment) int {
	changed := 0
	for _, h := range cur.Hosts() {
		for svc, p := range cur.HostAssignment(h) {
			if was, ok := prev.Get(h, svc); !ok || was != p {
				changed++
				break
			}
		}
	}
	return changed
}

func TestChangedHostsParity(t *testing.T) {
	prev := NewAssignment()
	for _, h := range []HostID{"same", "switched", "shrunk", "grown", "removed"} {
		prev.Set(h, "os", "win")
		prev.Set(h, "web", "nginx")
	}
	cur := prev.Clone()
	cur.Set("joined", "os", "linux")                            // counted: no prior product
	cur.Set("switched", "web", "httpd")                         // counted: product changed
	cur.SetHost("shrunk", map[ServiceID]ProductID{"os": "win"}) // not counted: nothing new
	cur.Set("grown", "db", "pg")                                // counted: new service
	cur.RemoveHost("removed")                                   // not counted: not a host of cur
	if got := cur.ChangedHosts(prev); got != 3 {
		t.Errorf("ChangedHosts = %d, want 3 (joined, switched, grown)", got)
	}
	if got, want := cur.ChangedHosts(prev), referenceChangedHosts(cur, prev); got != want {
		t.Errorf("ChangedHosts = %d, reference = %d", got, want)
	}
	if got := cur.ChangedHosts(NewAssignment()); got != len(cur.Hosts()) {
		t.Errorf("against an empty assignment every host joined: got %d, want %d", got, len(cur.Hosts()))
	}

	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 100; i++ {
		prev := randomAssignment(rng, rng.Intn(30), 4)
		cur := prev.Clone()
		for _, h := range cur.Hosts() {
			switch rng.Intn(5) {
			case 0:
				cur.RemoveHost(h)
			case 1:
				for s := range cur.HostAssignment(h) {
					cur.Set(h, s, ProductID(randomID(rng)))
					break
				}
			case 2:
				m := cur.HostAssignment(h)
				for s := range m {
					delete(m, s)
					break
				}
				cur.SetHost(h, m)
			}
		}
		for j, n := 0, rng.Intn(4); j < n; j++ {
			cur.Set(HostID(fmt.Sprintf("new%d", j)), "os", "p")
		}
		if got, want := cur.ChangedHosts(prev), referenceChangedHosts(cur, prev); got != want {
			t.Fatalf("case %d: ChangedHosts = %d, reference = %d", i, got, want)
		}
	}
}
