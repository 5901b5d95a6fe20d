// Package route implements the flow-channel routing stage of the paper's
// physical design flow (Section IV-B-2, Algorithm 2 lines 9-18).
//
// The routing plane is partitioned into rectangular grid cells. Every cell
// ce_i carries a weight w(i), initialised to the constant w_e and updated
// after each routed task to the wash time of the residue the task leaves
// behind, and a set T_i of occupancy time slots. Transportation tasks are
// routed one by one in non-decreasing start-time order with an A* search
// whose cost follows Eq. 5: path length so far + distance-to-target
// estimate + cell weight, with cells whose time slots intersect the
// task's interval excluded outright. Cheap-to-wash cells attract later
// tasks, lengthening shared channel segments, while the time slots
// eliminate transportation conflicts among parallel tasks.
package route

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/chip"
	"repro/internal/fault"
	"repro/internal/fluid"
	"repro/internal/interval"
	"repro/internal/place"
	"repro/internal/schedule"
	"repro/internal/unit"
)

// Params configures the router.
type Params struct {
	// We is the initial cell weight w_e (the paper uses 10).
	We float64
	// Pitch is the physical length of one grid-cell edge; total channel
	// length is reported as routed edges × Pitch.
	Pitch unit.Length
	// RipUpRounds bounds the local rip-up-and-reroute recovery the
	// proposed router may attempt when a task finds no conflict-free
	// path: up to RipUpRounds rounds of evicting already-routed tasks
	// around the stuck task's terminals (widening the search box each
	// round) before giving up. Zero — the default and the published
	// algorithm — disables recovery entirely and reproduces the
	// historical behaviour bit for bit; only the degradation ladder of
	// internal/core arms it.
	RipUpRounds int
	// Workers, when >= 2, routes waves of time-slot-disjoint tasks
	// concurrently with speculative per-worker searches that are validated
	// against the deterministic sequential commit order (see parallel.go).
	// The routed paths are byte-identical to the sequential router's for
	// every Workers value; 0 or 1 — the default — runs the historical
	// sequential loop outright.
	Workers int
}

// DefaultParams returns the published parameters: w_e = 10 and a 10 mm
// cell pitch.
func DefaultParams() Params {
	return Params{We: 10, Pitch: 10 * unit.Millimetre}
}

// Cell is a grid coordinate.
type Cell struct{ X, Y int }

// slot is one occupancy entry of a cell: the interval a fluid (and its
// subsequent residue) holds the cell, plus the wash its residue needs.
type slot struct {
	iv    interval.Interval
	fluid string
	wash  unit.Time
	task  int
}

// Grid is the routing plane state.
type Grid struct {
	W, H    int
	pitch   unit.Length
	we      float64
	blocked []bool // component interiors
	weight  []float64
	slots   [][]slot
	ports   []Cell   // canonical port per component (display, tests)
	rings   [][]Cell // all free boundary cells per component: every one
	// is a usable flow port, so concurrent tasks at one component do not
	// contend for a single cell
	sc      scratch   // reusable A*/BFS state; see astar.go
	hfields [][]int32 // cached heuristic fields per destination component
	sorted  []slot    // finishMetrics' copy of one cell's slots, reused
}

// gridPool recycles Grid shells between routings. A NewGrid/release pair
// brackets every routing pass, so the big per-plane arrays (blocked,
// weight, slots and the A* scratch — five W×H slices plus one []slot
// header per cell) are allocated once per size class and reused across
// dilation retries, seed retries and served requests instead of being
// torn down per pass. release scrubs all mutable state, so a recycled
// grid is indistinguishable from a fresh one — determinism does not
// depend on pool hits.
var gridPool sync.Pool

// NewGrid builds the routing plane from a placement: component interiors
// are blocked, every free cell starts at weight w_e, and each component
// gets a port cell on its boundary ring.
func NewGrid(comps []chip.Component, pl *place.Placement, pr Params) (*Grid, error) {
	if pl == nil || pl.W <= 0 || pl.H <= 0 {
		return nil, fmt.Errorf("route: invalid placement plane")
	}
	if len(pl.Rects) != len(comps) {
		return nil, fmt.Errorf("route: placement has %d rects for %d components", len(pl.Rects), len(comps))
	}
	n := pl.W * pl.H
	g, _ := gridPool.Get().(*Grid)
	if g == nil {
		g = &Grid{}
	}
	g.W, g.H = pl.W, pl.H
	g.pitch, g.we = pr.Pitch, pr.We
	// Backing arrays survive in the pool at their released (clean) state:
	// growing past the capacity reallocates zeroed memory, while reslicing
	// within it exposes only cells release already scrubbed.
	if cap(g.blocked) < n {
		g.blocked = make([]bool, n)
		g.weight = make([]float64, n)
		g.slots = make([][]slot, n)
	} else {
		g.blocked = g.blocked[:n]
		g.weight = g.weight[:n]
		g.slots = g.slots[:n]
	}
	g.sc.ensure(n)
	g.ports = make([]Cell, len(comps))
	g.rings = make([][]Cell, len(comps))
	g.hfields = make([][]int32, len(comps))
	for i := range g.weight {
		g.weight[i] = pr.We
	}
	for _, r := range pl.Rects {
		for y := r.Y; y < r.Y+r.H; y++ {
			for x := r.X; x < r.X+r.W; x++ {
				if x < 0 || x >= g.W || y < 0 || y >= g.H {
					g.release()
					return nil, fmt.Errorf("route: component rect %+v outside plane", r)
				}
				g.blocked[g.idx(x, y)] = true
			}
		}
	}
	// Flow ports: every free cell on the boundary ring plus the ring one
	// cell further out (short port stubs). The second ring both
	// multiplies port capacity and prevents a single line of busy cells
	// from sealing a component in. Around a footprint of positive size
	// (the placement validator rejects any other) the inner ring lies at
	// distance one and the outer at distance two, and neither visits a
	// cell twice, so a ring holds no duplicates. All rings share one
	// backing array sized by the footprints' perimeters.
	perim := 0
	for _, r := range pl.Rects {
		perim += max(0, 4*(r.W+r.H)+8)
	}
	cells := make([]Cell, 0, perim)
	for c, r := range pl.Rects {
		from := len(cells)
		cells = g.appendFreeRing(cells, r)
		cells = g.appendFreeRing(cells, place.Rect{X: r.X - 1, Y: r.Y - 1, W: r.W + 2, H: r.H + 2})
		if len(cells) == from {
			g.release()
			return nil, fmt.Errorf("route: component %d at %+v has no free port cell", c, r)
		}
		g.rings[c] = cells[from:len(cells):len(cells)]
		g.ports[c] = g.rings[c][0]
	}
	return g, nil
}

// release scrubs the grid's mutable state and returns it to the pool.
// Callers must not touch the grid afterwards; nothing a routing Result
// carries aliases grid memory (paths and metrics are copied out), so the
// routing entry points release unconditionally on exit.
func (g *Grid) release() {
	clear(g.blocked)
	for i := range g.slots {
		g.slots[i] = g.slots[i][:0]
	}
	g.sc.reset()
	// Per-component headers are rebuilt per placement; drop them so the
	// pool retains only the size-class arrays.
	g.ports, g.rings, g.hfields = nil, nil, nil
	gridPool.Put(g)
}

// InjectDefects marks free routing cells defective according to the
// plan's route.cell.blocked point, modelling fabrication defects on the
// flow layer. Cells are evaluated once each in row-major order, so the
// defect pattern is a pure function of the plan seed and the grid shape.
// Component port-ring cells are exempt: a defect covering a whole ring
// would seal a component in — NewGrid rejects that as an invalid plane,
// not a routable-around defect — and partial ring damage adds nothing the
// interior defects don't already model. Returns the number of cells
// blocked.
func (g *Grid) InjectDefects(p *fault.Plan) int {
	if !p.Enabled() {
		return 0
	}
	exempt := make(map[Cell]bool)
	for _, ring := range g.rings {
		for _, c := range ring {
			exempt[c] = true
		}
	}
	n := 0
	for y := 0; y < g.H; y++ {
		for x := 0; x < g.W; x++ {
			i := g.idx(x, y)
			if g.blocked[i] || exempt[Cell{X: x, Y: y}] {
				continue
			}
			if p.Fire(fault.RouteCellBlocked) {
				g.blocked[i] = true
				n++
			}
		}
	}
	return n
}

func (g *Grid) idx(x, y int) int { return y*g.W + x }

// In reports whether the cell lies on the plane.
func (g *Grid) In(c Cell) bool { return c.X >= 0 && c.X < g.W && c.Y >= 0 && c.Y < g.H }

// Blocked reports whether the cell is inside a component footprint.
func (g *Grid) Blocked(c Cell) bool { return g.blocked[g.idx(c.X, c.Y)] }

// Weight returns the current wash-time weight of the cell.
func (g *Grid) Weight(c Cell) float64 { return g.weight[g.idx(c.X, c.Y)] }

// Port returns the port cell assigned to the component.
func (g *Grid) Port(c chip.CompID) Cell { return g.ports[c] }

// appendFreeRing appends the free in-bounds cells on the boundary ring
// of the rectangle, scanning the top edge, then right, bottom and left —
// deterministic, corners excluded and always outside the footprint.
func (g *Grid) appendFreeRing(dst []Cell, r place.Rect) []Cell {
	free := func(x, y int) bool { c := Cell{x, y}; return g.In(c) && !g.Blocked(c) }
	for x := r.X; x < r.X+r.W; x++ {
		if free(x, r.Y-1) {
			dst = append(dst, Cell{x, r.Y - 1})
		}
	}
	for y := r.Y; y < r.Y+r.H; y++ {
		if free(r.X+r.W, y) {
			dst = append(dst, Cell{r.X + r.W, y})
		}
	}
	for x := r.X; x < r.X+r.W; x++ {
		if free(x, r.Y+r.H) {
			dst = append(dst, Cell{x, r.Y + r.H})
		}
	}
	for y := r.Y; y < r.Y+r.H; y++ {
		if free(r.X-1, y) {
			dst = append(dst, Cell{r.X - 1, y})
		}
	}
	return dst
}

// Ring returns the usable port cells of the component: every free cell on
// its boundary. Treating the whole ring as flow ports lets concurrent
// tasks touch one component without contending for a single cell.
func (g *Grid) Ring(c chip.CompID) []Cell { return g.rings[c] }

// onRing reports whether cell c is a port cell of the component.
func (g *Grid) onRing(comp chip.CompID, c Cell) bool {
	for _, r := range g.rings[comp] {
		if r == c {
			return true
		}
	}
	return false
}

// usable reports whether the cell can carry a task occupying iv: per
// Eq. 5, a cell is excluded exactly when one of its existing time slots
// intersects the task's interval. Residue washing between sequential uses
// is not a hard feasibility constraint here — as in the paper, where the
// scheduler assumes a constant transportation time t_c and therefore
// cannot reserve wash windows on individual channel segments, washes are
// steered by the cell weights (cheap-to-wash and same-fluid cells attract
// reuse) and accounted in the total channel wash time of Fig. 9.
func (g *Grid) usable(c Cell, iv interval.Interval, fl string) bool {
	return g.usableAt(&g.sc, g.idx(c.X, c.Y), iv, fl)
}

// usableAt is usable keyed by packed cell index: the A* inner loop
// already has the index at hand, so the cell is resolved exactly once.
// The scratch receives the telemetry counters and, when read tracking is
// armed, the probe record — every grid cell whose mutable state (slots,
// weight) can influence the calling search goes through here, which is
// what makes the recorded read set a sound invalidation key for
// speculative parallel routing.
func (g *Grid) usableAt(sc *scratch, i int, iv interval.Interval, fl string) bool {
	if sc.track && sc.rmark[i] != sc.gen {
		sc.rmark[i] = sc.gen
		sc.reads = append(sc.reads, int32(i))
	}
	if g.blocked[i] {
		return false
	}
	for _, s := range g.slots[i] {
		if s.fluid == fl {
			// The same sample may share a channel with itself — aliquots
			// of one fluid neither contaminate nor physically conflict
			// with each other.
			continue
		}
		if s.iv.Overlaps(iv) {
			sc.stats.slotConflicts++
			return false
		}
	}
	return true
}

// commit records the task's occupancy along path and leaves its residue:
// cell weights become the residue's wash time (Fig. 7's updating process).
// The first cell carries the hold window (movement plus any channel-cache
// park); the remaining cells carry only the movement window. A cell off
// the plane, which only an unvalidated document's path can hold, gets no
// slot: its packed index would fall outside the grid or alias a cell on
// it. finishMetrics counts such a cell by value, and the auditor reports
// it (path-bounds).
func (g *Grid) commit(task int, path []Cell, move, hold interval.Interval, fl string, wash unit.Time) {
	if hold.Empty() {
		hold = move
	}
	for k, c := range path {
		if !g.In(c) {
			continue
		}
		iv := move
		if k == 0 {
			iv = hold
		}
		i := g.idx(c.X, c.Y)
		g.weight[i] = wash.Sec()
		g.slots[i] = append(g.slots[i], slot{iv: iv, fluid: fl, wash: wash, task: task})
	}
}

// clear removes all slots of the given task (used by the baseline's
// rip-up-and-reroute correction) and restores weights lazily: weights are
// only meaningful to the proposed router, which never rips up.
func (g *Grid) clear(task int) {
	for i := range g.slots {
		ss := g.slots[i][:0]
		for _, s := range g.slots[i] {
			if s.task != task {
				ss = append(ss, s)
			}
		}
		g.slots[i] = ss
	}
}

// conflictsOf returns the tasks whose committed slots intersect another
// task's slot anywhere on the grid (the transportation conflicts of
// Section II-C-2), as a sorted set. Same-fluid overlaps are not
// conflicts.
func (g *Grid) conflictsOf() []int {
	bad := map[int]bool{}
	for i := range g.slots {
		ss := g.slots[i]
		for a := 0; a < len(ss); a++ {
			for b := a + 1; b < len(ss); b++ {
				if ss[a].fluid != ss[b].fluid && ss[a].iv.Overlaps(ss[b].iv) {
					bad[ss[a].task], bad[ss[b].task] = true, true
				}
			}
		}
	}
	out := make([]int, 0, len(bad))
	for t := range bad {
		out = append(out, t)
	}
	sort.Ints(out)
	return out
}

// terminalBox returns the bounding box covering the port rings of the
// task's two terminals, expanded by m cells — the region whose congestion
// can make the task unroutable.
func (g *Grid) terminalBox(t Task, m int) (Cell, Cell) {
	lo := Cell{g.W, g.H}
	hi := Cell{0, 0}
	grow := func(cs []Cell) {
		for _, c := range cs {
			if c.X < lo.X {
				lo.X = c.X
			}
			if c.Y < lo.Y {
				lo.Y = c.Y
			}
			if c.X > hi.X {
				hi.X = c.X
			}
			if c.Y > hi.Y {
				hi.Y = c.Y
			}
		}
	}
	grow(g.rings[t.From])
	grow(g.rings[t.To])
	lo.X -= m
	lo.Y -= m
	hi.X += m
	hi.Y += m
	return lo, hi
}

// Task is the routing view of one transportation task.
type Task struct {
	ID   int
	From chip.CompID
	To   chip.CompID
	// Window is the movement window [Depart, Arrive): the whole path is
	// occupied while the fluid traverses it.
	Window interval.Interval
	// Hold extends the occupancy of the first path cell for fluids that
	// were parked in channel storage next to their source component:
	// [CacheStart, Arrive). Empty for direct transports.
	Hold  interval.Interval
	Fluid fluid.Fluid
	Wash  unit.Time
}

// HoldWindow returns the occupancy of the task's first path cell: the
// channel-cache park plus the movement, or just the movement when the
// fluid never cached.
func (t Task) HoldWindow() interval.Interval {
	if t.Hold.Empty() {
		return t.Window
	}
	return t.Hold
}

// TasksFrom converts a schedule's transports into routing tasks sorted by
// non-decreasing start time (Algorithm 2 line 11), tie-broken by ID.
func TasksFrom(r *schedule.Result) []Task {
	ts := make([]Task, 0, len(r.Transports))
	for _, tr := range r.Transports {
		start := tr.Depart
		if tr.FromChannel {
			start = tr.CacheStart
		}
		t := Task{
			ID:     tr.ID,
			From:   tr.From,
			To:     tr.To,
			Window: interval.Make(tr.Depart, tr.Arrive),
			Fluid:  tr.Fluid,
			Wash:   tr.WashTime,
		}
		if tr.FromChannel {
			t.Hold = interval.Make(start, tr.Arrive)
		}
		ts = append(ts, t)
	}
	sort.SliceStable(ts, func(i, j int) bool {
		a, b := ts[i].HoldWindow().Start, ts[j].HoldWindow().Start
		if a != b {
			return a < b
		}
		return ts[i].ID < ts[j].ID
	})
	return ts
}
