package verify

import (
	"fmt"
	"testing"

	"repro/internal/benchdata"
	"repro/internal/chip"
	"repro/internal/place"
	"repro/internal/route"
	"repro/internal/schedule"
)

// TestOnRingMatchesRouterRings: the router's port rings, built straight
// from the placement without deduplication, hold no cell twice, and as
// sets equal both what the auditor's onRing accepts and the map-based
// rings of the reference geometry. Placements: the 7 Table I benchmarks
// annealed at seeds 1–3, their ×1.5 and ×2.25 dilations, and footprints
// against the plane's edges.
func TestOnRingMatchesRouterRings(t *testing.T) {
	for _, bm := range benchdata.All() {
		comps := bm.Alloc.Instantiate()
		sr, err := schedule.Schedule(bm.Graph, comps, schedule.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		for seed := uint64(1); seed <= 3; seed++ {
			pp := place.DefaultParams()
			pp.Imax = 30
			pp.Seed = seed
			pl, err := place.Anneal(comps, place.BuildNets(sr, pp.Beta, pp.Gamma), pp)
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range []float64{1, 1.5, 2.25} {
				checkRings(t, fmt.Sprintf("%s/seed%d/x%v", bm.Name, seed, f), comps, place.Dilate(pl, f))
			}
		}
	}

	// Footprints flush with each edge and corner of the plane, and two
	// footprints one free cell apart, whose rings share that cell.
	comps := chip.Allocation{2, 2, 1, 1}.Instantiate()
	edge := &place.Placement{W: 12, H: 9, Rects: []place.Rect{
		{X: 0, Y: 0, W: 2, H: 2},
		{X: 10, Y: 0, W: 2, H: 3},
		{X: 0, Y: 7, W: 3, H: 2},
		{X: 9, Y: 6, W: 3, H: 3},
		{X: 4, Y: 3, W: 2, H: 2},
		{X: 7, Y: 3, W: 1, H: 2},
	}}
	checkRings(t, "edges", comps, edge)
}

func checkRings(t *testing.T, name string, comps []chip.Component, pl *place.Placement) {
	t.Helper()
	g, err := route.NewGrid(comps, pl, route.DefaultParams())
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	ge, ref := buildGeometry(pl), buildRefGeometry(pl)
	for c := range comps {
		ring := g.Ring(chip.CompID(c))
		seen := make(map[[2]int]bool, len(ring))
		for _, cell := range ring {
			k := [2]int{cell.X, cell.Y}
			if seen[k] {
				t.Fatalf("%s: component %d's ring holds %v twice", name, c, cell)
			}
			seen[k] = true
			if !ge.onRing(c, cell.X, cell.Y) {
				t.Fatalf("%s: router ring cell %v of component %d fails onRing", name, cell, c)
			}
		}
		for y := -2; y < pl.H+2; y++ {
			for x := -2; x < pl.W+2; x++ {
				if ge.onRing(c, x, y) && !seen[[2]int{x, y}] {
					t.Fatalf("%s: onRing accepts (%d,%d) for component %d, which its router ring lacks", name, x, y, c)
				}
			}
		}
		if len(ref.rings[c]) != len(seen) {
			t.Fatalf("%s: component %d: reference ring has %d cells, router ring %d", name, c, len(ref.rings[c]), len(seen))
		}
		for k := range ref.rings[c] {
			if !seen[k] {
				t.Fatalf("%s: component %d: reference ring cell %v missing from the router ring", name, c, k)
			}
		}
	}
}
