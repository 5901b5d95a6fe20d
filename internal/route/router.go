package route

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"sort"
	"time"

	"repro/internal/chip"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/place"
	"repro/internal/schedule"
	"repro/internal/unit"
)

// RoutedTask is the committed path of one transportation task.
type RoutedTask struct {
	Task Task
	Path []Cell
}

// Len returns the path length in grid edges.
func (r RoutedTask) Len() int {
	if len(r.Path) == 0 {
		return 0
	}
	return len(r.Path) - 1
}

// Result is a complete routing solution.
type Result struct {
	GridW, GridH int
	Pitch        unit.Length
	Routes       []RoutedTask
	// ChannelWash is the total wash time spent cleaning flow-channel
	// cells between uses by different fluids (the quantity of Fig. 9).
	ChannelWash unit.Time
	// UnionCells is the number of distinct grid cells carrying a flow
	// channel; TotalLength() reports it physically.
	UnionCells int
	// CorrectionRounds counts rip-up-and-reroute rounds (baseline only).
	CorrectionRounds int
	// RecoveryRounds counts the bounded rip-up recovery rounds the
	// proposed router spent rescuing stuck tasks (Params.RipUpRounds > 0
	// only). Provenance, not solution content: serialization and
	// fingerprints exclude it.
	RecoveryRounds int
	// DilationTries counts the placement dilation retries SolveContext
	// needed before routing succeeded (0 = first try). Provenance, like
	// RecoveryRounds.
	DilationTries int
	// DefectCells counts the routing cells an armed fault plan marked
	// defective before routing started (see Grid.InjectDefects).
	// Provenance, like RecoveryRounds.
	DefectCells int
}

// TotalLength returns the physical total flow-channel length: every grid
// cell carrying a channel contributes one pitch. Segments shared by
// several tasks count once, exactly as fabricated channels would.
func (r *Result) TotalLength() unit.Length {
	return unit.Length(int64(r.UnionCells)) * r.Pitch
}

// Route runs the proposed transportation-conflict-aware router: tasks are
// sorted by start time and routed sequentially with the weighted A* of
// Eq. 5; after each task the wash-time weights and occupancy slots of the
// cells on its path are updated (Algorithm 2 lines 9-18).
func Route(r *schedule.Result, comps []chip.Component, pl *place.Placement, pr Params) (*Result, error) {
	return routeAll(context.Background(), r, comps, pl, pr, true)
}

// RouteContext is Route with cancellation: ctx is polled before each
// task's A* search, so a cancelled run aborts within one single-task
// routing. An uncancelled context reproduces Route exactly.
func RouteContext(ctx context.Context, r *schedule.Result, comps []chip.Component, pl *place.Placement, pr Params) (*Result, error) {
	return routeAll(ctx, r, comps, pl, pr, true)
}

// RouteUnweighted is the proposed router with the wash-weight guidance of
// Eq. 5 disabled (pure shortest feasible paths). It exists for the
// ablation study: comparing it against Route isolates the contribution of
// the weight mechanism to channel sharing and wash time.
func RouteUnweighted(r *schedule.Result, comps []chip.Component, pl *place.Placement, pr Params) (*Result, error) {
	return routeAll(context.Background(), r, comps, pl, pr, false)
}

// RouteBaseline runs the construction-by-correction baseline: every task
// first gets an unweighted shortest path with conflicts ignored; then
// conflicting tasks are ripped up and rerouted (in start-time order) with
// conflict checks enabled but still no wash-weight guidance, until the
// solution is conflict-free.
func RouteBaseline(r *schedule.Result, comps []chip.Component, pl *place.Placement, pr Params) (*Result, error) {
	return RouteBaselineContext(context.Background(), r, comps, pl, pr)
}

// RouteBaselineContext is RouteBaseline with cancellation: ctx is polled
// before each construction routing and each correction round.
func RouteBaselineContext(ctx context.Context, r *schedule.Result, comps []chip.Component, pl *place.Placement, pr Params) (*Result, error) {
	g, err := NewGrid(comps, pl, pr)
	if err != nil {
		return nil, err
	}
	defer g.release()
	tasks := TasksFrom(r)
	res := &Result{GridW: g.W, GridH: g.H, Pitch: pr.Pitch, Routes: make([]RoutedTask, len(tasks))}
	paths := make(map[int][]Cell, len(tasks))

	// Construction: conflict-blind shortest paths on an empty grid view.
	empty, err := NewGrid(comps, pl, pr)
	if err != nil {
		return nil, err
	}
	defer empty.release()
	tr := obs.From(ctx)
	flt := fault.From(ctx)
	// Defects are drawn once on the commit grid and mirrored onto the
	// conflict-blind view, so construction and correction see the same
	// damaged plane without consuming the fault stream twice.
	if n := g.InjectDefects(flt); n > 0 {
		copy(empty.blocked, g.blocked)
		res.DefectCells = n
		tr.Instant(obs.CatRoute, "route.defects", obs.Arg{Key: "cells", Val: float64(n)})
	}
	for _, t := range tasks {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("route: baseline construction aborted: %w", err)
		}
		if err := flt.Err(fault.RouteStepFail); err != nil {
			return nil, fmt.Errorf("route: baseline construction aborted: %w", err)
		}
		var t0 time.Time
		if tr.Enabled() {
			empty.sc.stats = searchStats{}
			t0 = time.Now()
		}
		p := empty.routeTask(t, false)
		if p == nil {
			return nil, fmt.Errorf("route: baseline construction failed for task %d", t.ID)
		}
		if tr.Enabled() {
			st := empty.sc.stats
			tr.RouteTask(obs.RouteTask{
				Task: t.ID, From: int(t.From), To: int(t.To),
				Expanded: st.expanded, HeapPeak: st.heapPeak, SlotConflicts: st.slotConflicts,
				PathLen: len(p) - 1, Dur: time.Since(t0),
			})
		}
		paths[t.ID] = p
		g.commit(t.ID, p, t.Window, t.Hold, t.Fluid.Name, t.Wash)
	}

	// Correction: repeatedly rip up every conflicting (or yet-unrouted)
	// task and reroute the set sequentially with feasibility checks on.
	// Tasks that failed in the previous round get first pick of the
	// channel capacity in the next one.
	byID := make(map[int]Task, len(tasks))
	for _, t := range tasks {
		byID[t.ID] = t
	}
	failedLast := map[int]bool{}
	unrouted := map[int]bool{}
	blockers := map[int]bool{}
	failCount := map[int]int{}
	const maxRounds = 96
	for round := 0; ; round++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("route: baseline correction aborted: %w", err)
		}
		if err := flt.Err(fault.RouteStepFail); err != nil {
			return nil, fmt.Errorf("route: baseline correction aborted: %w", err)
		}
		badSet := map[int]bool{}
		for _, id := range g.conflictsOf() {
			badSet[id] = true
		}
		for id := range unrouted {
			badSet[id] = true
		}
		for id := range blockers {
			if _, routed := paths[id]; routed {
				badSet[id] = true
			}
		}
		bad := make([]int, 0, len(badSet))
		for id := range badSet {
			bad = append(bad, id)
		}
		if len(bad) == 0 {
			break
		}
		if round >= maxRounds {
			return nil, fmt.Errorf("route: baseline correction did not converge (%d conflicting tasks left)", len(bad))
		}
		res.CorrectionRounds++
		tr.Instant(obs.CatRoute, "route.correction",
			obs.Arg{Key: "round", Val: float64(round)}, obs.Arg{Key: "ripped", Val: float64(len(bad))})
		// Repeated failures escalate in priority (negotiated congestion):
		// the most-starved task gets first pick of the channel capacity.
		sort.Slice(bad, func(i, j int) bool {
			if failCount[bad[i]] != failCount[bad[j]] {
				return failCount[bad[i]] > failCount[bad[j]]
			}
			wi, wj := byID[bad[i]].HoldWindow(), byID[bad[j]].HoldWindow()
			if wi.Start != wj.Start {
				return wi.Start < wj.Start
			}
			return bad[i] < bad[j]
		})
		for _, id := range bad {
			g.clear(id)
		}
		nextFailed := map[int]bool{}
		nextUnrouted := map[int]bool{}
		blockers = map[int]bool{}
		for _, id := range bad {
			t := byID[id]
			p := g.routeTask(t, false)
			if p == nil {
				nextFailed[id] = true
				nextUnrouted[id] = true
				failCount[id]++
				delete(paths, id)
				// The tasks crowding this window around the failed
				// task's terminals must move next round.
				lo, hi := g.terminalBox(t, 3)
				for _, other := range tasks {
					if other.ID == id || !other.HoldWindow().Overlaps(t.HoldWindow()) {
						continue
					}
					for _, c := range paths[other.ID] {
						if c.X >= lo.X && c.X <= hi.X && c.Y >= lo.Y && c.Y <= hi.Y {
							blockers[other.ID] = true
							break
						}
					}
				}
				continue
			}
			paths[id] = p
			g.commit(id, p, t.Window, t.Hold, t.Fluid.Name, t.Wash)
		}
		// No progress two rounds in a row with the same failures means
		// the capacity is genuinely insufficient: give up so the caller
		// can dilate the placement.
		if len(nextUnrouted) > 0 && sameIntSet(nextUnrouted, unrouted) && sameIntSet(nextFailed, failedLast) {
			var ids []int
			for id := range nextUnrouted {
				ids = append(ids, id)
			}
			sort.Ints(ids)
			return nil, fmt.Errorf("route: baseline correction failed for task %d", ids[0])
		}
		failedLast = nextFailed
		unrouted = nextUnrouted
	}

	for i, t := range tasks {
		res.Routes[i] = RoutedTask{Task: t, Path: paths[t.ID]}
	}
	finishMetrics(res, g)
	return res, nil
}

// Solve routes a schedule with automatic congestion recovery: if no
// conflict-free routing exists on the given placement, the placement is
// dilated (same relative layout, wider corridors) and routing is retried.
// It returns the routing result together with the placement actually used.
func Solve(r *schedule.Result, comps []chip.Component, pl *place.Placement, pr Params, baseline bool) (*Result, *place.Placement, error) {
	return SolveContext(context.Background(), r, comps, pl, pr, baseline)
}

// SolveContext is Solve with cancellation: a done ctx aborts the current
// routing pass between tasks and stops the dilation ladder instead of
// retrying. An uncancelled context reproduces Solve exactly.
func SolveContext(ctx context.Context, r *schedule.Result, comps []chip.Component, pl *place.Placement, pr Params, baseline bool) (*Result, *place.Placement, error) {
	tr := obs.From(ctx)
	f := 1.0
	var lastErr error
	for try := 0; try < 4; try++ {
		if try > 0 {
			tr.Instant(obs.CatRoute, "route.dilate",
				obs.Arg{Key: "factor", Val: f}, obs.Arg{Key: "attempt", Val: float64(try)})
		}
		cur := place.Dilate(pl, f)
		var res *Result
		var err error
		if baseline {
			res, err = RouteBaselineContext(ctx, r, comps, cur, pr)
		} else {
			res, err = routeAll(ctx, r, comps, cur, pr, true)
		}
		if err == nil {
			res.DilationTries = try
			return res, cur, nil
		}
		lastErr = err
		if ctx.Err() != nil {
			break // cancelled, not congested: don't burn dilation retries
		}
		f *= 1.5
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, fmt.Errorf("route: aborted: %w", err)
	}
	return nil, nil, fmt.Errorf("route: congestion not resolved by dilation: %w", lastErr)
}

// noPathError is the shared routing-failure error of the sequential loop
// and the wave router.
func noPathError(t Task) error {
	return fmt.Errorf("route: no conflict-free path for task %d (%d→%d, window %v)",
		t.ID, t.From, t.To, t.Window)
}

// routeAll is the shared driver for the proposed router.
func routeAll(ctx context.Context, r *schedule.Result, comps []chip.Component, pl *place.Placement, pr Params, weighted bool) (*Result, error) {
	g, err := NewGrid(comps, pl, pr)
	if err != nil {
		return nil, err
	}
	defer g.release()
	tasks := TasksFrom(r)
	res := &Result{GridW: g.W, GridH: g.H, Pitch: pr.Pitch, Routes: make([]RoutedTask, 0, len(tasks))}
	tr := obs.From(ctx)
	flt := fault.From(ctx)
	if n := g.InjectDefects(flt); n > 0 {
		res.DefectCells = n
		tr.Instant(obs.CatRoute, "route.defects", obs.Arg{Key: "cells", Val: float64(n)})
	}
	// The wave router takes over when parallelism is requested. It yields
	// byte-identical Routes (see parallel.go) but per-wave rather than
	// per-task telemetry, and it does not consume the fault stream per
	// task — so an armed fault plan keeps the sequential loop, whose
	// injection points the chaos suite pins.
	if pr.Workers >= 2 && len(tasks) >= 2 && !flt.Enabled() {
		if err := g.routeAllWaves(ctx, tasks, res, pr, weighted, tr); err != nil {
			return nil, err
		}
		finishMetrics(res, g)
		return res, nil
	}
	for _, t := range tasks {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("route: aborted before task %d: %w", t.ID, err)
		}
		if err := flt.Err(fault.RouteStepFail); err != nil {
			return nil, fmt.Errorf("route: aborted before task %d: %w", t.ID, err)
		}
		// Telemetry snapshots the scratch counters around each search.
		// time.Now is only read when a tracer is installed, so the
		// disabled path stays free of clock syscalls.
		var t0 time.Time
		if tr.Enabled() {
			g.sc.stats = searchStats{}
			t0 = time.Now()
		}
		p := g.routeTask(t, weighted)
		if p == nil && pr.RipUpRounds > 0 {
			p = ripUpRecover(g, res, t, weighted, pr.RipUpRounds, tr)
		}
		if p == nil {
			return nil, noPathError(t)
		}
		if tr.Enabled() {
			st := g.sc.stats
			tr.RouteTask(obs.RouteTask{
				Task: t.ID, From: int(t.From), To: int(t.To),
				Expanded: st.expanded, HeapPeak: st.heapPeak, SlotConflicts: st.slotConflicts,
				PathLen: len(p) - 1, Weighted: weighted, Dur: time.Since(t0),
			})
		}
		g.commit(t.ID, p, t.Window, t.Hold, t.Fluid.Name, t.Wash)
		res.Routes = append(res.Routes, RoutedTask{Task: t, Path: p})
	}
	finishMetrics(res, g)
	return res, nil
}

// ripUpRecover attempts bounded local rip-up-and-reroute when task t
// finds no conflict-free path in the proposed router. Each round widens a
// box around t's terminals (the congestion region of terminalBox),
// evicts the already-routed tasks whose paths cross the box and whose
// hold windows overlap t's — the only routes whose occupancy slots can
// be excluding t — routes t, then reroutes the victims in their original
// order. If any victim cannot be rerouted the round is rolled back
// exactly (t cleared, surviving new paths cleared, original paths
// recommitted) and the next round widens the box. On success the
// victims' entries in res are updated in place and res.RecoveryRounds
// advances.
//
// Cell weights are not rolled back: commit overwrites a cell's weight
// with the new residue's wash time and clear restores nothing (see
// grid.clear). Weights only guide the A* cost of Eq. 5 — feasibility
// comes from the occupancy slots, which are restored exactly — so a
// rolled-back round can shift later tasks' channel sharing but never
// their correctness. That approximation is why recovery is opt-in
// degraded-mode behaviour rather than part of the published algorithm.
func ripUpRecover(g *Grid, res *Result, t Task, weighted bool, rounds int, tr *obs.Tracer) []Cell {
	for k := 0; k < rounds; k++ {
		lo, hi := g.terminalBox(t, 3+2*k)
		inBox := func(c Cell) bool {
			return c.X >= lo.X && c.X <= hi.X && c.Y >= lo.Y && c.Y <= hi.Y
		}
		var victims []int // indices into res.Routes, original routing order
		for i := range res.Routes {
			rt := &res.Routes[i]
			if !rt.Task.HoldWindow().Overlaps(t.HoldWindow()) || rt.Task.Fluid.Name == t.Fluid.Name {
				continue
			}
			for _, c := range rt.Path {
				if inBox(c) {
					victims = append(victims, i)
					break
				}
			}
		}
		if len(victims) == 0 {
			continue // nothing evictable here: widen and retry
		}
		for _, i := range victims {
			g.clear(res.Routes[i].Task.ID)
		}
		rollback := func(upto int) {
			g.clear(t.ID)
			for vi := 0; vi < upto; vi++ {
				g.clear(res.Routes[victims[vi]].Task.ID)
			}
			for _, i := range victims {
				rt := &res.Routes[i]
				g.commit(rt.Task.ID, rt.Path, rt.Task.Window, rt.Task.Hold, rt.Task.Fluid.Name, rt.Task.Wash)
			}
		}
		p := g.routeTask(t, weighted)
		if p == nil {
			rollback(0)
			continue
		}
		g.commit(t.ID, p, t.Window, t.Hold, t.Fluid.Name, t.Wash)
		newPaths := make([][]Cell, len(victims))
		ok := true
		for vi, i := range victims {
			vt := res.Routes[i].Task
			np := g.routeTask(vt, weighted)
			if np == nil {
				ok = false
				rollback(vi)
				break
			}
			g.commit(vt.ID, np, vt.Window, vt.Hold, vt.Fluid.Name, vt.Wash)
			newPaths[vi] = np
		}
		if !ok {
			continue
		}
		for vi, i := range victims {
			res.Routes[i].Path = newPaths[vi]
		}
		// Hand the grid back without t: the caller commits the returned
		// path, exactly as it would for a first-try success.
		g.clear(t.ID)
		res.RecoveryRounds++
		tr.Instant(obs.CatRoute, "route.ripup",
			obs.Arg{Key: "task", Val: float64(t.ID)},
			obs.Arg{Key: "round", Val: float64(k)},
			obs.Arg{Key: "victims", Val: float64(len(victims))})
		return p
	}
	return nil
}

// RecomputeMetrics refreshes the derived quantities (union channel
// length, channel wash time) of a routing result whose Routes were
// reconstructed externally, e.g. after decoding a serialized solution.
// The routes are replayed onto a fresh grid built from the placement.
func RecomputeMetrics(res *Result, sched *schedule.Result, comps []chip.Component, pl *place.Placement, pr Params) {
	g, err := NewGrid(comps, pl, pr)
	if err != nil {
		return
	}
	defer g.release()
	for _, rt := range res.Routes {
		t := rt.Task
		g.commit(t.ID, rt.Path, t.Window, t.Hold, t.Fluid.Name, t.Wash)
	}
	finishMetrics(res, g)
}

// sameIntSet reports whether two sets hold identical members.
func sameIntSet(a, b map[int]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

// finishMetrics computes the union channel length and the total channel
// wash time. Every channel cell must be washed after carrying a fluid
// (Section II-B: channels are cleaned by flushing a buffer), except when
// the next fluid through the cell is the same sample — its own residue
// does not contaminate it, so consecutive same-fluid uses share a single
// wash. Shorter routes and same-fluid channel sharing therefore reduce
// the total wash time, which is exactly the behaviour the cell-weight
// mechanism of Eq. 5 promotes.
func finishMetrics(res *Result, g *Grid) {
	// Union cells are counted with the scratch's generation stamps. Only
	// an unvalidated document's paths (RecomputeMetrics) can hold a cell
	// off the plane, which has no stamp; those are counted by value.
	sc := &g.sc
	sc.gen++
	var off map[Cell]bool
	union := 0
	for _, rt := range res.Routes {
		for _, c := range rt.Path {
			if !g.In(c) {
				if off == nil {
					off = map[Cell]bool{}
				}
				off[c] = true
				continue
			}
			if i := g.idx(c.X, c.Y); sc.mark[i] != sc.gen {
				sc.mark[i] = sc.gen
				union++
			}
		}
	}
	res.UnionCells = union + len(off)

	// Each cell's slots are read in start order. A cell with two or more
	// is sorted in a reused copy, with pdqsort — the algorithm behind
	// sort.Slice too, so ties between equal starts keep the order the
	// wash sum was defined with.
	var wash unit.Time
	for i := range g.slots {
		ss := g.slots[i]
		if len(ss) > 1 {
			g.sorted = append(g.sorted[:0], ss...)
			ss = g.sorted
			slices.SortFunc(ss, func(a, b slot) int { return cmp.Compare(a.iv.Start, b.iv.Start) })
		}
		for k := 0; k < len(ss); k++ {
			if k+1 < len(ss) && ss[k+1].fluid == ss[k].fluid {
				continue // same sample follows: one wash covers both
			}
			wash += ss[k].wash
		}
	}
	res.ChannelWash = wash
}

// Validate re-checks a routing result against its schedule independently:
// every transport routed, endpoints at the right ports, paths connected,
// and no pairwise cell conflicts (overlap or missing wash gap).
func Validate(res *Result, sched *schedule.Result, comps []chip.Component, pl *place.Placement, pr Params) error {
	g, err := NewGrid(comps, pl, pr)
	if err != nil {
		return err
	}
	defer g.release()
	if len(res.Routes) != len(sched.Transports) {
		return fmt.Errorf("route: %d routes for %d transports", len(res.Routes), len(sched.Transports))
	}
	seen := map[int]bool{}
	for _, rt := range res.Routes {
		t := rt.Task
		if seen[t.ID] {
			return fmt.Errorf("route: task %d routed twice", t.ID)
		}
		seen[t.ID] = true
		if len(rt.Path) == 0 {
			return fmt.Errorf("route: task %d has empty path", t.ID)
		}
		if !g.onRing(t.From, rt.Path[0]) {
			return fmt.Errorf("route: task %d starts at %v, not a port of component %d", t.ID, rt.Path[0], t.From)
		}
		if !g.onRing(t.To, rt.Path[len(rt.Path)-1]) {
			return fmt.Errorf("route: task %d ends at %v, not a port of component %d", t.ID, rt.Path[len(rt.Path)-1], t.To)
		}
		for i, c := range rt.Path {
			if !g.In(c) || g.Blocked(c) {
				return fmt.Errorf("route: task %d path cell %v blocked or outside", t.ID, c)
			}
			if i > 0 {
				dx, dy := c.X-rt.Path[i-1].X, c.Y-rt.Path[i-1].Y
				if dx*dx+dy*dy != 1 {
					return fmt.Errorf("route: task %d path not 4-connected at %v", t.ID, c)
				}
			}
		}
		g.commit(t.ID, rt.Path, t.Window, t.Hold, t.Fluid.Name, t.Wash)
	}
	if bad := g.conflictsOf(); len(bad) > 0 {
		return fmt.Errorf("route: transportation conflicts among tasks %v", bad)
	}
	return nil
}
