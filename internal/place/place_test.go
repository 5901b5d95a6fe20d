package place

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/benchdata"
	"repro/internal/chip"
	"repro/internal/rng"
	"repro/internal/schedule"
)

func scheduled(t testing.TB, name string) (*schedule.Result, []chip.Component) {
	t.Helper()
	bm, err := benchdata.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	comps := bm.Alloc.Instantiate()
	r, err := schedule.Schedule(bm.Graph, comps, schedule.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return r, comps
}

func TestRectGeometry(t *testing.T) {
	r := Rect{X: 2, Y: 3, W: 4, H: 2}
	if r.CenterX() != 4 || r.CenterY() != 4 {
		t.Errorf("centre = (%v,%v), want (4,4)", r.CenterX(), r.CenterY())
	}
	b := Rect{X: 6, Y: 3, W: 2, H: 2}
	if r.expandedOverlaps(b, 0) {
		t.Error("touching rects must not overlap with margin 0")
	}
	if !r.expandedOverlaps(b, 1) {
		t.Error("touching rects must conflict with margin 1")
	}
}

func TestLegalDetectsViolations(t *testing.T) {
	p := &Placement{W: 10, H: 10, Rects: []Rect{
		{X: 1, Y: 1, W: 3, H: 3},
		{X: 6, Y: 6, W: 3, H: 3},
	}}
	if err := p.Legal(1); err != nil {
		t.Errorf("legal placement rejected: %v", err)
	}
	p.Rects[1] = Rect{X: 4, Y: 1, W: 3, H: 3} // violates spacing 1
	if err := p.Legal(1); err == nil {
		t.Error("spacing violation not detected")
	}
	p.Rects[1] = Rect{X: 8, Y: 8, W: 3, H: 3} // out of bounds
	if err := p.Legal(1); err == nil {
		t.Error("out-of-bounds not detected")
	}
	p.Rects[1] = Rect{X: 6, Y: 6, W: 0, H: 3}
	if err := p.Legal(1); err == nil {
		t.Error("empty footprint not detected")
	}
}

func TestEnergyMatchesHandComputation(t *testing.T) {
	p := &Placement{W: 20, H: 20, Rects: []Rect{
		{X: 1, Y: 1, W: 2, H: 2},  // centre (2,2)
		{X: 11, Y: 1, W: 2, H: 2}, // centre (12,2)
		{X: 1, Y: 11, W: 2, H: 2}, // centre (2,12)
	}}
	nets := []Net{
		{A: 0, B: 1, CP: 2}, // mdis 10 → 20
		{A: 0, B: 2, CP: 1}, // mdis 10 → 10
	}
	if got := Energy(p, nets); got != 30 {
		t.Errorf("Energy = %v, want 30", got)
	}
	if got := p.Dist(1, 2); got != 20 {
		t.Errorf("Dist(1,2) = %v, want 20", got)
	}
}

func TestBuildNetsAggregatesPairs(t *testing.T) {
	r, _ := scheduled(t, "IVD")
	nets := BuildNets(r, 0.6, 0.4)
	if len(nets) == 0 {
		t.Fatal("IVD must have nets (mix->detect transports)")
	}
	seen := map[[2]chip.CompID]bool{}
	total := 0
	for _, n := range nets {
		if n.A >= n.B {
			t.Errorf("net pair not normalised: %v,%v", n.A, n.B)
		}
		k := [2]chip.CompID{n.A, n.B}
		if seen[k] {
			t.Errorf("duplicate net %v", k)
		}
		seen[k] = true
		if n.CP <= 0 {
			t.Errorf("net %v has non-positive priority %v", k, n.CP)
		}
		if len(n.Tasks) == 0 {
			t.Errorf("net %v has no tasks", k)
		}
		total += len(n.Tasks)
	}
	if total != len(r.Transports) {
		t.Errorf("nets cover %d tasks, schedule has %d", total, len(r.Transports))
	}
}

func TestBuildNetsWashAndConcurrencyRaisePriority(t *testing.T) {
	// Two synthetic transports: one with heavy wash, one light; heavier
	// wash must yield larger cp for its net.
	r, _ := scheduled(t, "Synthetic2")
	nets := BuildNets(r, 0.6, 0.4)
	netsNoWash := BuildNets(r, 0.6, 0)
	// With γ=0 every cp only counts concurrency, so cp must not increase.
	byPair := func(ns []Net) map[[2]chip.CompID]float64 {
		m := map[[2]chip.CompID]float64{}
		for _, n := range ns {
			m[[2]chip.CompID{n.A, n.B}] = n.CP
		}
		return m
	}
	full, bare := byPair(nets), byPair(netsNoWash)
	for k, v := range full {
		if bare[k] > v+1e-9 {
			t.Errorf("net %v: cp without wash %v exceeds full cp %v", k, bare[k], v)
		}
	}
}

func TestAutoPlaneFitsComponents(t *testing.T) {
	for _, bm := range benchdata.All() {
		comps := bm.Alloc.Instantiate()
		w, h := AutoPlane(comps, 1)
		r := rng.New(7)
		p, err := randomPlacement(comps, w, h, 1, r)
		if err != nil {
			t.Errorf("%s: %v", bm.Name, err)
			continue
		}
		if err := p.Legal(1); err != nil {
			t.Errorf("%s: random placement illegal: %v", bm.Name, err)
		}
	}
}

func TestAnnealImprovesOverRandom(t *testing.T) {
	r, comps := scheduled(t, "Synthetic2")
	nets := BuildNets(r, 0.6, 0.4)
	pr := DefaultParams()
	pr.Imax = 60 // keep the test fast; still many thousands of moves
	p, err := Anneal(comps, nets, pr)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Legal(pr.Spacing); err != nil {
		t.Fatalf("anneal produced illegal placement: %v", err)
	}
	// Compare against the average random placement energy.
	w, h := AutoPlane(comps, pr.Spacing)
	var avg float64
	const n = 10
	src := rng.New(99)
	for i := 0; i < n; i++ {
		rp, err := randomPlacement(comps, w, h, pr.Spacing, src)
		if err != nil {
			t.Fatal(err)
		}
		avg += Energy(rp, nets)
	}
	avg /= n
	if got := Energy(p, nets); got >= avg {
		t.Errorf("annealed energy %v not below average random energy %v", got, avg)
	}
}

func TestAnnealDeterministic(t *testing.T) {
	r, comps := scheduled(t, "IVD")
	nets := BuildNets(r, 0.6, 0.4)
	pr := DefaultParams()
	pr.Imax = 40
	a, err := Anneal(comps, nets, pr)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Anneal(comps, nets, pr)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Rects {
		if a.Rects[i] != b.Rects[i] {
			t.Fatalf("same seed produced different placements at comp %d", i)
		}
	}
	pr.Seed = 2
	c, err := Anneal(comps, nets, pr)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a.Rects {
		if a.Rects[i] != c.Rects[i] {
			same = false
		}
	}
	if same {
		t.Log("different seeds produced identical placements (possible but unlikely)")
	}
}

func TestAnnealRejectsBadParams(t *testing.T) {
	_, comps := scheduled(t, "IVD")
	pr := DefaultParams()
	pr.Alpha = 1.5
	if _, err := Anneal(comps, nil, pr); err == nil {
		t.Error("alpha >= 1 not rejected")
	}
	pr = DefaultParams()
	pr.T0 = 0.5 // below Tmin
	if _, err := Anneal(comps, nil, pr); err == nil {
		t.Error("T0 <= Tmin not rejected")
	}
	// Coordinates a chain's int32 arrays cannot hold.
	pr = DefaultParams()
	pr.PlaneW, pr.PlaneH = chainLimit+1, chainLimit+1
	if _, err := Anneal(comps, nil, pr); err == nil {
		t.Error("plane beyond chainLimit not rejected")
	}
	if _, err := AnnealTempered(comps, nil, pr, 2); err == nil {
		t.Error("tempering on a plane beyond chainLimit not rejected")
	}
	huge := append([]chip.Component(nil), comps...)
	huge[0].Kind.W = -(chainLimit + 1)
	pr = DefaultParams()
	pr.PlaneW, pr.PlaneH = 200, 200
	if _, err := Anneal(huge, nil, pr); err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Errorf("footprint beyond chainLimit: err = %v, want the range check", err)
	}
}

func TestConstructLegalAndDeterministic(t *testing.T) {
	r, comps := scheduled(t, "CPA")
	nets := BuildNets(r, 0.6, 0.4)
	pr := DefaultParams()
	a, err := Construct(comps, nets, pr)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Legal(pr.Spacing); err != nil {
		t.Fatalf("baseline placement illegal: %v", err)
	}
	b, err := Construct(comps, nets, pr)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Rects {
		if a.Rects[i] != b.Rects[i] {
			t.Fatal("baseline placement not deterministic")
		}
	}
}

func TestAnnealBeatsBaselineOnWeightedEnergy(t *testing.T) {
	// The SA placer optimises Eq. 3 directly, so on the weighted energy it
	// must not lose to the priority-blind baseline.
	r, comps := scheduled(t, "Synthetic3")
	nets := BuildNets(r, 0.6, 0.4)
	pr := DefaultParams()
	pr.Imax = 60
	ours, err := Anneal(comps, nets, pr)
	if err != nil {
		t.Fatal(err)
	}
	ba, err := Construct(comps, nets, pr)
	if err != nil {
		t.Fatal(err)
	}
	if Energy(ours, nets) > Energy(ba, nets) {
		t.Errorf("SA energy %v worse than baseline %v", Energy(ours, nets), Energy(ba, nets))
	}
}

// TestTransformPreservesLegality commits every legal move the chain
// proposes and checks that the placement stays legal and that the bound
// arrays describe it after every commit.
func TestTransformPreservesLegality(t *testing.T) {
	_, comps := scheduled(t, "CPA")
	w, h := AutoPlane(comps, 1)
	r := rng.New(3)
	p, err := randomPlacement(comps, w, h, 1, r)
	if err != nil {
		t.Fatal(err)
	}
	var c chain
	c.init(p, BuildNetIndex(len(comps), randomNets(len(comps), 2*len(comps), r)), 1)
	for i := 0; i < 2000; i++ {
		if _, _, ok := c.propose(r); ok {
			c.commit()
			if err := p.Legal(1); err != nil {
				t.Fatalf("move %d broke legality: %v", i, err)
			}
			checkBounds(t, &c, fmt.Sprintf("commit %d", i))
		}
	}
}

// TestUndoRestoresPlacement undoes every legal move the chain proposes
// and checks that the placement, the bound arrays and the centres are
// as before it.
func TestUndoRestoresPlacement(t *testing.T) {
	_, comps := scheduled(t, "IVD")
	w, h := AutoPlane(comps, 1)
	r := rng.New(5)
	p, err := randomPlacement(comps, w, h, 1, r)
	if err != nil {
		t.Fatal(err)
	}
	var c chain
	c.init(p, BuildNetIndex(len(comps), randomNets(len(comps), 2*len(comps), r)), 1)
	for i := 0; i < 500; i++ {
		before := p.Clone()
		if _, _, ok := c.propose(r); !ok {
			continue
		}
		c.undo()
		for j := range p.Rects {
			if p.Rects[j] != before.Rects[j] {
				t.Fatalf("undo failed at move %d comp %d", i, j)
			}
		}
		checkBounds(t, &c, fmt.Sprintf("undo %d", i))
	}
}

func TestDilatePreservesLayout(t *testing.T) {
	_, comps := scheduled(t, "CPA")
	w, h := AutoPlane(comps, 2)
	r := rng.New(11)
	p, err := randomPlacement(comps, w, h, 2, r)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []float64{1.0, 1.5, 2.25} {
		q := Dilate(p, f)
		if len(q.Rects) != len(p.Rects) {
			t.Fatalf("f=%v: rect count changed", f)
		}
		for i, orig := range p.Rects {
			got := q.Rects[i]
			if got.W != orig.W || got.H != orig.H {
				t.Errorf("f=%v: footprint %d changed", f, i)
			}
		}
		// Spacing never shrinks below the original minimum (for f >= 1.5
		// gaps strictly grow; at f = 1 everything is identical).
		if f == 1.0 {
			for i := range p.Rects {
				if q.Rects[i] != p.Rects[i] {
					t.Errorf("f=1 must be identity at rect %d", i)
				}
			}
			continue
		}
		if err := q.Legal(2); err != nil {
			t.Errorf("f=%v: dilated placement illegal: %v", f, err)
		}
		// Relative order is preserved: centre ordering along x and y.
		for i := range p.Rects {
			for j := range p.Rects {
				if p.Rects[i].CenterX() < p.Rects[j].CenterX() &&
					q.Rects[i].CenterX() > q.Rects[j].CenterX() {
					t.Errorf("f=%v: x order of %d,%d flipped", f, i, j)
				}
			}
		}
	}
}

func TestDilateProperty(t *testing.T) {
	// Dilation by >= 1.5 keeps any legal placement legal.
	_, comps := scheduled(t, "Synthetic4")
	src := rng.New(23)
	for trial := 0; trial < 10; trial++ {
		w, h := AutoPlane(comps, 2)
		p, err := randomPlacement(comps, w, h, 2, src)
		if err != nil {
			t.Fatal(err)
		}
		q := Dilate(p, 1.5)
		if err := q.Legal(2); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}
