package verify

import (
	"cmp"
	"slices"

	"repro/internal/interval"
	"repro/internal/place"
	"repro/internal/route"
	"repro/internal/schedule"
	"repro/internal/unit"
)

// checkPlacement audits the component footprints on the routing plane:
// one rectangle per component, sized like the component (possibly
// rotated), inside the plane and pairwise disjoint. Spacing margins are a
// placer-quality concern, not a legality constraint — dilation legally
// rescales them — so only structural overlap is a violation.
func (a *auditor) checkPlacement() {
	pl, rep := a.in.Placement, a.rep
	rep.Stats.Rects = len(pl.Rects)
	if pl.W <= 0 || pl.H <= 0 {
		rep.add(Placement, "plane", "placement plane %dx%d is empty", pl.W, pl.H)
		return
	}
	if len(pl.Rects) != len(a.in.Comps) {
		rep.add(Placement, "rect-count", "%d rectangles for %d components", len(pl.Rects), len(a.in.Comps))
		return
	}
	for i, r := range pl.Rects {
		if r.W <= 0 || r.H <= 0 {
			rep.add(Placement, "footprint-empty", "component %d has empty footprint %+v", i, r)
			continue
		}
		fp := a.in.Comps[i].Kind.Footprint
		if !(r.W == fp.W && r.H == fp.H) && !(r.W == fp.H && r.H == fp.W) {
			rep.add(Placement, "footprint-size", "component %s placed as %dx%d, library footprint is %dx%d",
				a.in.Comps[i].Name(), r.W, r.H, fp.W, fp.H)
		}
		if r.X < 0 || r.Y < 0 || r.X+r.W > pl.W || r.Y+r.H > pl.H {
			rep.add(Placement, "bounds", "component %d at %+v leaves the %dx%d plane", i, r, pl.W, pl.H)
		}
		for j := i + 1; j < len(pl.Rects); j++ {
			o := pl.Rects[j]
			if r.X < o.X+o.W && o.X < r.X+r.W && r.Y < o.Y+o.H && o.Y < r.Y+r.H {
				rep.add(Placement, "overlap", "components %d and %d overlap: %+v vs %+v", i, j, r, o)
			}
		}
	}
}

// cellSlot is one independently re-derived occupancy entry of a grid cell.
type cellSlot struct {
	iv    interval.Interval
	fluid string
	wash  unit.Time
	task  int
}

// validPath is a routed path that passed the auditor's path checks, with
// the transport it carries.
type validPath struct {
	tr   *schedule.Transport
	path []route.Cell
}

// geometry is the auditor's own routing-plane model, rebuilt from the
// placement alone: blocked component interiors and the port rings (the
// free boundary cells at distance one and two of each footprint), which
// onRing decides from the footprint itself.
type geometry struct {
	w, h    int
	blocked []bool
	rects   []place.Rect
}

func (ge *geometry) in(x, y int) bool { return x >= 0 && x < ge.w && y >= 0 && y < ge.h }

func (ge *geometry) isBlocked(x, y int) bool { return ge.blocked[y*ge.w+x] }

// buildGeometry derives the plane model from the placement.
func buildGeometry(pl *place.Placement) *geometry {
	ge := &geometry{w: pl.W, h: pl.H, blocked: make([]bool, pl.W*pl.H), rects: pl.Rects}
	for _, r := range pl.Rects {
		for y := r.Y; y < r.Y+r.H; y++ {
			for x := r.X; x < r.X+r.W; x++ {
				if ge.in(x, y) {
					ge.blocked[y*ge.w+x] = true
				}
			}
		}
	}
	return ge
}

// onRing reports whether (x, y) is a port cell of component c: a free
// cell of the plane on the boundary ring of its footprint or of the
// footprint grown by one cell on every side. A boundary ring is the
// row above and below the rectangle and the column left and right of
// it, corners excluded.
func (ge *geometry) onRing(c int, x, y int) bool {
	if c < 0 || c >= len(ge.rects) || !ge.in(x, y) || ge.isBlocked(x, y) {
		return false
	}
	r := ge.rects[c]
	return onBoundary(r, x, y) || onBoundary(place.Rect{X: r.X - 1, Y: r.Y - 1, W: r.W + 2, H: r.H + 2}, x, y)
}

// onBoundary reports whether (x, y) lies on the boundary ring of r.
func onBoundary(r place.Rect, x, y int) bool {
	inX := x >= r.X && x < r.X+r.W
	inY := y >= r.Y && y < r.Y+r.H
	return inX && (y == r.Y-1 || y == r.Y+r.H) || inY && (x == r.X-1 || x == r.X+r.W)
}

// taskWindows returns the movement window of a transport and the extended
// hold window its first path cell carries when the fluid parked in channel
// storage next to its source (Section IV-B-2).
func taskWindows(tr *schedule.Transport) (move, hold interval.Interval) {
	move = interval.Make(tr.Depart, tr.Arrive)
	hold = move
	if tr.FromChannel {
		hold = interval.Make(tr.CacheStart, tr.Arrive)
	}
	return move, hold
}

// checkRouting audits every transportation task's committed path against
// the plane geometry and the time-slot condition of Eq. 5, then re-sums
// the reported aggregates (union channel length, total channel wash time)
// from the raw paths.
func (a *auditor) checkRouting() {
	res, s, rep := a.in.Routing, a.in.Schedule, a.rep
	rep.Stats.Routes = len(res.Routes)
	if res.GridW != a.in.Placement.W || res.GridH != a.in.Placement.H {
		rep.add(Routing, "grid-dims", "routing grid %dx%d, placement plane %dx%d",
			res.GridW, res.GridH, a.in.Placement.W, a.in.Placement.H)
	}
	ge := buildGeometry(a.in.Placement)

	trByID := make(map[int]*schedule.Transport, len(s.Transports))
	for i := range s.Transports {
		trByID[s.Transports[i].ID] = &s.Transports[i]
	}
	routed := map[int]bool{}

	// The paths that pass their checks, in route order, and how many
	// occupancy entries each cell gets from them (at cell index + 1).
	var valid []validPath
	next := make([]int32, ge.w*ge.h+1)

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
		if !ge.onRing(int(tr.From), first.X, first.Y) {
			rep.add(Routing, "endpoint-src", "task %d starts at (%d,%d), not a port of component %d",
				tr.ID, first.X, first.Y, tr.From)
		}
		if !ge.onRing(int(tr.To), last.X, last.Y) {
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
		valid = append(valid, validPath{tr: tr, path: rt.Path})
		for _, c := range rt.Path {
			next[c.Y*ge.w+c.X+1]++
		}
	}
	for id := range trByID {
		if !routed[id] {
			rep.add(Routing, "route-missing", "transport %d was never routed", id)
		}
	}

	// The occupancy calendar: one flat slice holding every cell's
	// entries, cell after cell in cell-index order and each cell's in
	// route order, exactly as the router commits them — a counting sort
	// by cell index. next[idx] starts as the offset of cell idx's entries
	// and advances past each one placed, ending as the offset of cell
	// idx+1's.
	for i := 1; i < len(next); i++ {
		next[i] += next[i-1]
	}
	calendar := make([]cellSlot, next[len(next)-1])
	for _, vp := range valid {
		move, hold := taskWindows(vp.tr)
		for i, c := range vp.path {
			iv := move
			if i == 0 {
				iv = hold
			}
			idx := c.Y*ge.w + c.X
			calendar[next[idx]] = cellSlot{iv: iv, fluid: vp.tr.Fluid.Name, wash: vp.tr.WashTime, task: vp.tr.ID}
			next[idx]++
		}
	}

	// Walk the calendar cell by cell. Eq. 5: no two tasks of different
	// fluids may hold one cell in intersecting time slots; aliquots of
	// the same sample share freely. Channel wash time charges one wash
	// per slot, in start order, except when the next fluid through the
	// cell is the same sample, whose residue does not contaminate it (the
	// accounting of Fig. 9).
	cells := 0
	var wash unit.Time
	lo := int32(0)
	for idx, hi := range next[:len(next)-1] {
		ss := calendar[lo:hi]
		lo = hi
		if len(ss) == 0 {
			continue
		}
		cells++
		for i := 0; i < len(ss); i++ {
			for j := i + 1; j < len(ss); j++ {
				if ss[i].fluid != ss[j].fluid && ss[i].iv.Overlaps(ss[j].iv) {
					rep.add(Slot, "slot-conflict", "tasks %d (%s, %v) and %d (%s, %v) share cell (%d,%d) in intersecting slots",
						ss[i].task, ss[i].fluid, ss[i].iv, ss[j].task, ss[j].fluid, ss[j].iv,
						idx%ge.w, idx/ge.w)
				}
			}
		}
		// The cell's entries are not read in route order again, so they
		// are put in start order where they lie, by pdqsort: the
		// algorithm of the sort.Slice the accounting was defined with, so
		// equal starts tie in the same order.
		if len(ss) > 1 {
			slices.SortFunc(ss, func(x, y cellSlot) int { return cmp.Compare(x.iv.Start, y.iv.Start) })
		}
		for k := 0; k < len(ss); k++ {
			if k+1 < len(ss) && ss[k+1].fluid == ss[k].fluid {
				continue
			}
			wash += ss[k].wash
		}
	}
	rep.Stats.Cells = cells
	rep.Stats.Slots = len(calendar)

	// Re-sum the reported aggregates. Union channel length counts each
	// distinct cell once (shared segments are fabricated once): every
	// cell of the calendar.
	if res.UnionCells != cells {
		rep.add(Metric, "union-cells", "reported %d union channel cells, paths cover %d", res.UnionCells, cells)
	}
	if res.ChannelWash != wash {
		rep.add(Metric, "wash-sum", "reported channel wash time %v, slot calendar re-sums to %v", res.ChannelWash, wash)
	}
}
