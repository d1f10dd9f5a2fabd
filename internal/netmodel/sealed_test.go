package netmodel

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"weak"
)

// referenceMarshal is Assignment.MarshalJSON as it was before it walked the
// host order itself: a copy of the maps pushed through encoding/json's
// reflective, key-sorting map encoder.  WAL snapshots and peers hold bytes it
// produced, so the live encoder must agree with it byte for byte.
func referenceMarshal(a *Assignment) ([]byte, error) {
	out := struct {
		Hosts map[HostID]map[ServiceID]ProductID `json:"hosts"`
	}{Hosts: make(map[HostID]map[ServiceID]ProductID, len(a.products))}
	for h, m := range a.products {
		mm := make(map[ServiceID]ProductID, len(m))
		for s, p := range m {
			mm[s] = p
		}
		out.Hosts[h] = mm
	}
	return json.Marshal(out)
}

// jsonAlphabet holds everything encoding/json treats specially: the quote and
// the backslash, the HTML-escaped trio, U+2028/U+2029, control bytes, DEL,
// multi-byte runes and bytes that are invalid UTF-8.
var jsonAlphabet = []string{
	"a", "Z", "0", " ", "-", `"`, `\`, "<", ">", "&", "\u2028", "\u2029",
	"\x00", "\x01", "\n", "\t", "\x1f", "\x7f", "é", "✓", "\xff", "\xc3", "\xe2\x82",
}

func jsonHostileAssignment(rng *rand.Rand, hosts, maxServices int) *Assignment {
	id := func() string {
		s := ""
		for i, n := 0, 1+rng.Intn(6); i < n; i++ {
			s += jsonAlphabet[rng.Intn(len(jsonAlphabet))]
		}
		return s
	}
	a := NewAssignment()
	for h := 0; h < hosts; h++ {
		host := HostID(fmt.Sprintf("%s#%d", id(), h))
		for s, n := 0, 1+rng.Intn(maxServices); s < n; s++ {
			a.Set(host, ServiceID(id()), ProductID(id()))
		}
	}
	return a
}

func TestMarshalJSONMatchesEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cases := []*Assignment{NewAssignment(), NewAssignment().Seal()}
	for i := 0; i < 200; i++ {
		// 12 services overflows the encoder's 8-entry stack buffer.
		a := jsonHostileAssignment(rng, rng.Intn(30), 1+rng.Intn(12))
		if i%2 == 0 {
			a.Seal()
		}
		cases = append(cases, a)
	}
	for i, a := range cases {
		want, err := referenceMarshal(a)
		if err != nil {
			t.Fatal(err)
		}
		got, err := a.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("case %d: MarshalJSON\n %s\nreference\n %s", i, got, want)
		}
		// Through the library (which re-validates and compacts a Marshaler's
		// output) and nested in a struct, as the serving plane sends it.
		nested, err := json.Marshal(struct{ A *Assignment }{a})
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if want := append(append([]byte(`{"A":`), want...), '}'); !bytes.Equal(nested, want) {
			t.Fatalf("case %d: nested\n %s\nwant\n %s", i, nested, want)
		}
		// Round trip.  Invalid UTF-8 decodes to U+FFFD, so compare what a
		// second encoding yields rather than the assignments themselves.
		var back Assignment
		if err := json.Unmarshal(got, &back); err != nil {
			t.Fatalf("case %d: decode: %v", i, err)
		}
		again, _ := back.MarshalJSON()
		var twice Assignment
		if err := json.Unmarshal(again, &twice); err != nil || !twice.Equal(&back) {
			t.Fatalf("case %d: second round trip differs (%v)", i, err)
		}
	}
	// Clean identifiers survive the round trip exactly, hash included.
	a := randomCleanAssignment(rng, 40)
	data, _ := json.Marshal(a)
	var back Assignment
	if err := json.Unmarshal(data, &back); err != nil || !back.Equal(a) || back.Hash() != a.Hash() {
		t.Fatalf("round trip of a clean assignment differs (%v)", err)
	}
}

func randomCleanAssignment(rng *rand.Rand, hosts int) *Assignment {
	a := NewAssignment()
	for h := 0; h < hosts; h++ {
		for s := 0; s < 3; s++ {
			a.Set(HostID(fmt.Sprintf("h%d", h)), ServiceID(fmt.Sprintf("s%d", s)), ProductID(fmt.Sprintf("p%d_%d", s, rng.Intn(4))))
		}
	}
	return a
}

func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	f()
}

func TestSealedAssignmentRejectsMutation(t *testing.T) {
	a := NewAssignment()
	a.Set("h1", "os", "linux")
	a.Set("h2", "os", "bsd")
	if a.Seal() != a || a.Seal() != a {
		t.Fatal("Seal must return its receiver and be idempotent")
	}
	hash := a.Hash()
	mustPanic(t, "Set", func() { a.Set("h1", "os", "x") })
	mustPanic(t, "SetHost", func() { a.SetHost("h1", nil) })
	mustPanic(t, "RemoveHost", func() { a.RemoveHost("h1") })
	mustPanic(t, "ApplyPatch", func() { a.ApplyPatch(nil, nil) })
	if err := json.Unmarshal([]byte(`{"hosts":{}}`), a); err == nil {
		t.Error("UnmarshalJSON into a sealed assignment did not fail")
	}
	mustPanic(t, "With on an unsealed assignment", func() { NewAssignment().With(nil, nil) })
	if a.Hash() != hash || a.Len() != 2 {
		t.Fatal("a rejected mutation changed the assignment")
	}
	// Hosts hands out a copy of the order, and Clone an editable deep copy.
	hosts := a.Hosts()
	hosts[0] = "zzz"
	if a.Hash() != hash || a.Hosts()[0] != "h1" {
		t.Fatal("Hosts leaked the sealed host order")
	}
	c := a.Clone()
	c.Set("h1", "os", "x")
	c.RemoveHost("h2")
	if a.Hash() != hash || c.Equal(a) {
		t.Fatal("Clone shares state with the sealed assignment")
	}
}

// TestWithMatchesApplyPatch drives With through random patches — hosts
// replaced, added, removed, removed-and-re-added in one step, emptied — and
// holds every derived version against ApplyPatch on a clone: same content,
// same hash, same host order, same JSON; the base never changes; and the
// derivation record answers DiffHosts/ChangedHosts exactly like the full walk.
func TestWithMatchesApplyPatch(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	cur := randomCleanAssignment(rng, 30).Seal()
	next := 1000
	for step := 0; step < 300; step++ {
		hosts := cur.Hosts()
		changed := make(map[HostID]map[ServiceID]ProductID)
		var removed []HostID
		for i, n := 0, rng.Intn(4); i < n; i++ {
			h := hosts[rng.Intn(len(hosts))]
			switch rng.Intn(6) {
			case 0: // leaves
				removed = append(removed, h)
			case 1: // joins
				h = HostID(fmt.Sprintf("j%d", next))
				next++
				changed[h] = map[ServiceID]ProductID{"s0": "p0_0"}
			case 2: // leaves and re-joins in one patch: host set unchanged
				removed = append(removed, h)
				changed[h] = map[ServiceID]ProductID{"s0": ProductID(fmt.Sprintf("p0_%d", rng.Intn(4)))}
			case 3: // emptied: the SetHost way of removing
				changed[h] = nil
			case 4: // named but identical
				changed[h] = cur.HostAssignment(h)
			default: // switches a product
				m := cur.HostAssignment(h)
				m["s1"] = ProductID(fmt.Sprintf("p1_%d", rng.Intn(4)))
				changed[h] = m
			}
		}
		if step%50 == 0 {
			changed, removed = nil, nil // With(nil, nil)
		}
		baseHash := cur.Hash()
		want := cur.Clone()
		want.ApplyPatch(changed, removed)
		got := cur.With(changed, removed)

		if cur.Hash() != baseHash {
			t.Fatalf("step %d: With mutated its base", step)
		}
		if !got.Equal(want) || got.Hash() != want.Hash() || got.Hash() != referenceHash(got) {
			t.Fatalf("step %d: With differs from ApplyPatch\n got %s\nwant %s", step, got, want)
		}
		if !slices.Equal(got.Hosts(), want.Hosts()) {
			t.Fatalf("step %d: host order %v, want %v", step, got.Hosts(), want.Hosts())
		}
		gotJSON, _ := got.MarshalJSON()
		wantJSON, _ := referenceMarshal(want)
		if !bytes.Equal(gotJSON, wantJSON) {
			t.Fatalf("step %d: JSON of the derived assignment differs", step)
		}
		mustPanic(t, "Set on a derived assignment", func() { got.Set("h0", "s0", "x") })

		// The derivation record against the full walk (want is not derived).
		fastC, fastR := got.DiffHosts(cur)
		fullC, fullR := want.DiffHosts(cur)
		if fmt.Sprint(fastC) != fmt.Sprint(fullC) || !slices.Equal(fastR, fullR) {
			t.Fatalf("step %d: DiffHosts via the derivation record\n %v %v\nfull walk\n %v %v", step, fastC, fastR, fullC, fullR)
		}
		if fast, full := got.ChangedHosts(cur), want.ChangedHosts(cur); fast != full {
			t.Fatalf("step %d: ChangedHosts %d via the derivation record, %d by the full walk", step, fast, full)
		}
		// Against anything but its base a derived assignment walks in full.
		other := cur.Clone().Seal()
		c, r := got.DiffHosts(other)
		if fmt.Sprint(c) != fmt.Sprint(fullC) || !slices.Equal(r, fullR) {
			t.Fatalf("step %d: DiffHosts against an equal non-base differs", step)
		}
		if c, r := got.DiffHosts(nil); len(c) != len(got.Hosts()) || len(r) != 0 {
			t.Fatalf("step %d: DiffHosts(nil) = %d changed %d removed", step, len(c), len(r))
		}
		// The replay invariant: the diff applied to the base yields the result.
		if replay := cur.With(fastC, fastR); replay.Hash() != got.Hash() {
			t.Fatalf("step %d: With(DiffHosts) does not reproduce the assignment", step)
		}
		if len(got.Hosts()) > 5 {
			cur = got
		}
	}
}

// TestWithHostOrder pins when the sorted host order is shared with the base
// (the host set did not change) and when it is merged.
func TestWithHostOrder(t *testing.T) {
	base := NewAssignment()
	for _, h := range []HostID{"b", "d", "f"} {
		base.Set(h, "os", "linux")
	}
	base.Seal()
	m := func(p ProductID) map[ServiceID]ProductID { return map[ServiceID]ProductID{"os": p} }
	shares := func(a *Assignment) bool { return &a.order[0] == &base.order[0] && len(a.order) == len(base.order) }

	for name, a := range map[string]*Assignment{
		"nothing":           base.With(nil, nil),
		"switch":            base.With(map[HostID]map[ServiceID]ProductID{"d": m("bsd")}, nil),
		"leave and re-join": base.With(map[HostID]map[ServiceID]ProductID{"d": m("bsd")}, []HostID{"d"}),
		"remove a stranger": base.With(nil, []HostID{"zz"}),
	} {
		if !shares(a) {
			t.Errorf("%s: host order was rebuilt although the host set is the same", name)
		}
	}
	for name, tc := range map[string]struct {
		a    *Assignment
		want []HostID
	}{
		"join front":  {base.With(map[HostID]map[ServiceID]ProductID{"a": m("x")}, nil), []HostID{"a", "b", "d", "f"}},
		"join middle": {base.With(map[HostID]map[ServiceID]ProductID{"c": m("x"), "e": m("x")}, nil), []HostID{"b", "c", "d", "e", "f"}},
		"join back":   {base.With(map[HostID]map[ServiceID]ProductID{"g": m("x")}, nil), []HostID{"b", "d", "f", "g"}},
		"leave":       {base.With(nil, []HostID{"b", "b"}), []HostID{"d", "f"}},
		"emptied":     {base.With(map[HostID]map[ServiceID]ProductID{"f": nil}, nil), []HostID{"b", "d"}},
		"swap":        {base.With(map[HostID]map[ServiceID]ProductID{"c": m("x"), "d": m("y")}, []HostID{"d", "f"}), []HostID{"b", "c", "d"}},
		"all leave":   {base.With(nil, []HostID{"b", "d", "f"}), []HostID{}},
	} {
		if !slices.Equal(tc.a.order, tc.want) {
			t.Errorf("%s: host order %v, want %v", name, tc.a.order, tc.want)
		}
		if tc.a.Hash() != referenceHash(tc.a) {
			t.Errorf("%s: hash over the merged order differs from the reference", name)
		}
	}
	if got := base.Hosts(); !slices.Equal(got, []HostID{"b", "d", "f"}) {
		t.Errorf("base order changed to %v", got)
	}
}

// TestWithRetainsNoBase derives a long version chain and checks that the
// first version is collected: a derived assignment refers to its base only
// weakly, so a served version never pins its predecessors.
func TestWithRetainsNoBase(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	first := randomCleanAssignment(rng, 50).Seal()
	probe := weak.Make(first)
	cur := first
	first = nil
	for v := 0; v < 1000; v++ {
		h := HostID(fmt.Sprintf("h%d", rng.Intn(50)))
		m := cur.HostAssignment(h)
		m["s0"] = ProductID(fmt.Sprintf("p0_%d", v%4))
		cur = cur.With(map[HostID]map[ServiceID]ProductID{h: m}, nil)
	}
	for i := 0; i < 5 && probe.Value() != nil; i++ {
		runtime.GC()
	}
	if probe.Value() != nil {
		t.Fatal("version 1 is still reachable from version 1000")
	}
	if cur.Len() != 150 {
		t.Fatalf("version 1000 holds %d pairs, want 150", cur.Len())
	}
	runtime.KeepAlive(cur)
}

var marshalSink []byte

func benchAssignment(hosts int) *Assignment {
	a := NewAssignment()
	for h := 0; h < hosts; h++ {
		for s := 0; s < 3; s++ {
			a.Set(HostID(fmt.Sprintf("h%d", h)), ServiceID(fmt.Sprintf("s%d", s)), ProductID(fmt.Sprintf("p%d_%d", s, (h+s)%4)))
		}
	}
	return a.Seal()
}

func BenchmarkAssignmentMarshal(b *testing.B) {
	for _, hosts := range []int{50, 6000} {
		a := benchAssignment(hosts)
		b.Run(fmt.Sprintf("h%d", hosts), func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				marshalSink, _ = a.MarshalJSON()
			}
		})
	}
}

var withSink *Assignment

// BenchmarkAssignmentWith is one delta's worth of derivation on a 6000-host
// assignment: four hosts change product, the other 5996 are shared.
func BenchmarkAssignmentWith(b *testing.B) {
	a := benchAssignment(6000)
	changed := make(map[HostID]map[ServiceID]ProductID)
	for _, h := range []HostID{"h7", "h1234", "h3000", "h5999"} {
		m := a.HostAssignment(h)
		m["s1"] = "p1_x"
		changed[h] = m
	}
	b.Run("h6000", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			withSink = a.With(changed, nil)
		}
	})
}
