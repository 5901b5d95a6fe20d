package verify

import (
	"reflect"
	"sort"

	"repro/internal/interval"
	"repro/internal/place"
	"repro/internal/schedule"
	"repro/internal/unit"
)

// refSlot is one occupancy entry of the reference calendar.
type refSlot struct {
	iv    interval.Interval
	fluid string
	wash  unit.Time
	task  int
}

// RoutingMatchesReference runs the structure check and then the routing
// check twice on in — as the auditor runs it and as the map-based
// reference does — and returns both reports, or equal reports for a
// solution whose routing the auditor would not reach. in must carry a
// placement and a routing.
func RoutingMatchesReference(in Input) (got, want *Report, same bool) {
	got, want = &Report{}, &Report{}
	a, r := &auditor{in: in, rep: got}, &auditor{in: in, rep: want}
	if a.checkStructure() && r.checkStructure() {
		a.checkRouting()
		r.checkRoutingReference()
	}
	return got, want, reflect.DeepEqual(got, want)
}

// refGeometry is the plane model checkRouting used before onRing: one
// map of ring cells per component.
type refGeometry struct {
	w, h    int
	blocked []bool
	rings   []map[[2]int]bool // per component
}

func (ge *refGeometry) in(x, y int) bool { return x >= 0 && x < ge.w && y >= 0 && y < ge.h }

func (ge *refGeometry) isBlocked(x, y int) bool { return ge.blocked[y*ge.w+x] }

// buildGeometry derives the plane model from the placement.
func buildRefGeometry(pl *place.Placement) *refGeometry {
	ge := &refGeometry{w: pl.W, h: pl.H, blocked: make([]bool, pl.W*pl.H), rings: make([]map[[2]int]bool, len(pl.Rects))}
	for _, r := range pl.Rects {
		for y := r.Y; y < r.Y+r.H; y++ {
			for x := r.X; x < r.X+r.W; x++ {
				if ge.in(x, y) {
					ge.blocked[y*ge.w+x] = true
				}
			}
		}
	}
	for c, r := range pl.Rects {
		ring := map[[2]int]bool{}
		for _, rr := range []place.Rect{r, {X: r.X - 1, Y: r.Y - 1, W: r.W + 2, H: r.H + 2}} {
			for x := rr.X; x < rr.X+rr.W; x++ {
				ring[[2]int{x, rr.Y - 1}] = true
				ring[[2]int{x, rr.Y + rr.H}] = true
			}
			for y := rr.Y; y < rr.Y+rr.H; y++ {
				ring[[2]int{rr.X - 1, y}] = true
				ring[[2]int{rr.X + rr.W, y}] = true
			}
		}
		free := map[[2]int]bool{}
		for c2 := range ring {
			if ge.in(c2[0], c2[1]) && !ge.isBlocked(c2[0], c2[1]) {
				free[c2] = true
			}
		}
		ge.rings[c] = free
	}
	return ge
}

// checkRoutingReference is checkRouting as it was with map-based rings,
// a map calendar and a union map. It stays as the oracle the flat
// calendar and the ring predicate are checked against.
func (a *auditor) checkRoutingReference() {
	res, s, rep := a.in.Routing, a.in.Schedule, a.rep
	rep.Stats.Routes = len(res.Routes)
	if res.GridW != a.in.Placement.W || res.GridH != a.in.Placement.H {
		rep.add(Routing, "grid-dims", "routing grid %dx%d, placement plane %dx%d",
			res.GridW, res.GridH, a.in.Placement.W, a.in.Placement.H)
	}
	ge := buildRefGeometry(a.in.Placement)

	trByID := make(map[int]*schedule.Transport, len(s.Transports))
	for i := range s.Transports {
		trByID[s.Transports[i].ID] = &s.Transports[i]
	}
	routed := map[int]bool{}

	// slots holds the re-derived occupancy calendar: cell index → entries,
	// appended in route order exactly as the router commits them.
	slots := make(map[int][]refSlot)
	union := map[[2]int]bool{}

	for _, rt := range res.Routes {
		tr := trByID[rt.Task.ID]
		if tr == nil {
			rep.add(Routing, "route-unknown", "route for task %d, which is no transport of the schedule", rt.Task.ID)
			continue
		}
		if routed[tr.ID] {
			rep.add(Routing, "route-duplicate", "task %d routed more than once", tr.ID)
			continue
		}
		routed[tr.ID] = true
		if len(rt.Path) == 0 {
			rep.add(Routing, "path-empty", "task %d (%d->%d) has no path", tr.ID, tr.From, tr.To)
			continue
		}
		first, last := rt.Path[0], rt.Path[len(rt.Path)-1]
		if !ge.rings[tr.From][[2]int{first.X, first.Y}] {
			rep.add(Routing, "endpoint-src", "task %d starts at (%d,%d), not a port of component %d",
				tr.ID, first.X, first.Y, tr.From)
		}
		if !ge.rings[tr.To][[2]int{last.X, last.Y}] {
			rep.add(Routing, "endpoint-dst", "task %d ends at (%d,%d), not a port of component %d",
				tr.ID, last.X, last.Y, tr.To)
		}
		pathOK := true
		for i, c := range rt.Path {
			if !ge.in(c.X, c.Y) {
				rep.add(Routing, "path-bounds", "task %d path cell (%d,%d) leaves the plane", tr.ID, c.X, c.Y)
				pathOK = false
				continue
			}
			if ge.isBlocked(c.X, c.Y) {
				rep.add(Routing, "path-blocked", "task %d path crosses component interior at (%d,%d)", tr.ID, c.X, c.Y)
				pathOK = false
			}
			if i > 0 {
				dx, dy := c.X-rt.Path[i-1].X, c.Y-rt.Path[i-1].Y
				if dx*dx+dy*dy != 1 {
					rep.add(Routing, "path-connectivity", "task %d path jumps from (%d,%d) to (%d,%d)",
						tr.ID, rt.Path[i-1].X, rt.Path[i-1].Y, c.X, c.Y)
					pathOK = false
				}
			}
		}
		if !pathOK {
			continue
		}
		move, hold := taskWindows(tr)
		for i, c := range rt.Path {
			iv := move
			if i == 0 {
				iv = hold
			}
			idx := c.Y*ge.w + c.X
			slots[idx] = append(slots[idx], refSlot{iv: iv, fluid: tr.Fluid.Name, wash: tr.WashTime, task: tr.ID})
			union[[2]int{c.X, c.Y}] = true
		}
	}
	for id := range trByID {
		if !routed[id] {
			rep.add(Routing, "route-missing", "transport %d was never routed", id)
		}
	}

	// Eq. 5: no two tasks of different fluids may hold one cell in
	// intersecting time slots. Aliquots of the same sample share freely.
	cellIdxs := make([]int, 0, len(slots))
	for idx := range slots {
		cellIdxs = append(cellIdxs, idx)
	}
	sort.Ints(cellIdxs)
	nSlots := 0
	for _, idx := range cellIdxs {
		ss := slots[idx]
		nSlots += len(ss)
		for i := 0; i < len(ss); i++ {
			for j := i + 1; j < len(ss); j++ {
				if ss[i].fluid != ss[j].fluid && ss[i].iv.Overlaps(ss[j].iv) {
					rep.add(Slot, "slot-conflict", "tasks %d (%s, %v) and %d (%s, %v) share cell (%d,%d) in intersecting slots",
						ss[i].task, ss[i].fluid, ss[i].iv, ss[j].task, ss[j].fluid, ss[j].iv,
						idx%ge.w, idx/ge.w)
				}
			}
		}
	}
	rep.Stats.Cells = len(slots)
	rep.Stats.Slots = nSlots

	// Re-sum the reported aggregates. Union channel length counts each
	// distinct cell once (shared segments are fabricated once); channel
	// wash time charges one wash per slot except when the next fluid
	// through the cell is the same sample, whose residue does not
	// contaminate it (the accounting of Fig. 9).
	if res.UnionCells != len(union) {
		rep.add(Metric, "union-cells", "reported %d union channel cells, paths cover %d", res.UnionCells, len(union))
	}
	var wash unit.Time
	for _, idx := range cellIdxs {
		ss := append([]refSlot(nil), slots[idx]...)
		sort.Slice(ss, func(x, y int) bool { return ss[x].iv.Start < ss[y].iv.Start })
		for k := 0; k < len(ss); k++ {
			if k+1 < len(ss) && ss[k+1].fluid == ss[k].fluid {
				continue
			}
			wash += ss[k].wash
		}
	}
	if res.ChannelWash != wash {
		rep.add(Metric, "wash-sum", "reported channel wash time %v, slot calendar re-sums to %v", res.ChannelWash, wash)
	}
}
