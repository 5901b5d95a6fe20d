package route

import (
	"context"
	"fmt"
	"slices"
	"time"

	"repro/internal/chip"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/place"
	"repro/internal/schedule"
)

// RepairSpec describes an incremental re-routing request after a
// mid-assay fault report: which plane cells died, which transports have
// physically happened (their paths are history and immutable), and what
// the previous plan routed everything through (for stability: suffix
// transports keep their old channel when it still works).
type RepairSpec struct {
	// Defects are plane cells reported failed. No re-planned path may use
	// them; frozen paths may (the fluid passed through before the cell
	// died).
	Defects []Cell
	// Frozen marks task IDs (== transport IDs) whose previous path must
	// be committed verbatim. Every frozen ID must have a PrevPaths entry.
	Frozen map[int]bool
	// PrevPaths maps task ID -> the path the previous solution used.
	// Non-frozen entries are reused when still defect-free and
	// conflict-free, so a repair perturbs as little of the chip as the
	// fault demands.
	PrevPaths map[int][]Cell
	// Fields, when set, keeps the A* heuristic fields this call computes
	// for later calls on the same placement (see Fields).
	Fields *Fields
}

// Fields keeps the A* heuristic fields of one placement across Repair
// calls. Each field is a BFS from a component's port rings that reads no
// blocked cell, and the rings are the free cells around the footprints,
// so a field depends on the placement alone: not on the schedule, the
// dead cells or what is committed. Repair reuses the fields when handed
// a placement with the same plane and footprints and starts afresh on
// any other. The zero value holds none. A Fields is not safe for
// concurrent use.
type Fields struct {
	w, h   int
	rects  []place.Rect
	fields [][]int32 // by component; nil until a search first needs it
}

// of returns the fields of pl, emptied first if they were computed for
// another placement.
func (f *Fields) of(pl *place.Placement) [][]int32 {
	if f.w != pl.W || f.h != pl.H || !slices.Equal(f.rects, pl.Rects) {
		f.w, f.h = pl.W, pl.H
		f.rects = append(f.rects[:0], pl.Rects...)
		f.fields = make([][]int32, len(pl.Rects))
	}
	return f.fields
}

// Repair routes a repaired schedule on the surviving plane: frozen tasks
// are committed exactly as previously routed, the reported defect cells
// are blocked, and every remaining transport is routed with the proposed
// conflict-aware weighted A* — reusing its previous path when that path
// is still feasible, and escalating through bounded rip-up recovery
// (Params.RipUpRounds) of non-frozen neighbours otherwise.
//
// Repair is always sequential: it never consults Params.Workers, so a
// repair is deterministic in its inputs at any serving pool size.
func Repair(ctx context.Context, sched *schedule.Result, comps []chip.Component, pl *place.Placement, pr Params, spec RepairSpec) (*Result, error) {
	g, err := NewGrid(comps, pl, pr)
	if err != nil {
		return nil, err
	}
	defer g.release()
	if spec.Fields != nil {
		g.hfields = spec.Fields.of(pl)
	}
	tasks := TasksFrom(sched)
	res := &Result{GridW: g.W, GridH: g.H, Pitch: pr.Pitch}
	tr := obs.From(ctx)
	flt := fault.From(ctx)

	// Chaos-plan defects first (same stream semantics as routeAll), then
	// the explicitly reported cells — which, unlike sampled defects, may
	// hit port-ring cells: a dead valve next to a component is exactly the
	// kind of fault a client reports.
	defects := g.InjectDefects(flt)
	for _, c := range spec.Defects {
		if g.In(c) && !g.blocked[g.idx(c.X, c.Y)] {
			g.blocked[g.idx(c.X, c.Y)] = true
			defects++
		}
	}
	res.DefectCells = defects
	if defects > 0 {
		tr.Instant(obs.CatRoute, "route.defects", obs.Arg{Key: "cells", Val: float64(defects)})
	}

	// Commit the frozen history. Grid.commit does not consult blocked
	// cells, so frozen paths crossing freshly dead cells stay valid — the
	// fluid traversed them before the fault. Frozen routes are kept out of
	// res.Routes until the end so rip-up recovery can never pick them as
	// victims.
	for _, t := range tasks {
		if !spec.Frozen[t.ID] {
			continue
		}
		p, ok := spec.PrevPaths[t.ID]
		if !ok || len(p) == 0 {
			return nil, fmt.Errorf("route: frozen task %d has no previous path", t.ID)
		}
		g.commit(t.ID, p, t.Window, t.Hold, t.Fluid.Name, t.Wash)
	}

	reused := 0
	for _, t := range tasks {
		if spec.Frozen[t.ID] {
			continue
		}
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("route: repair aborted before task %d: %w", t.ID, err)
		}
		if err := flt.Err(fault.RouteStepFail); err != nil {
			return nil, fmt.Errorf("route: repair aborted before task %d: %w", t.ID, err)
		}
		if prev, ok := spec.PrevPaths[t.ID]; ok && pathFeasible(g, t, prev) {
			g.commit(t.ID, prev, t.Window, t.Hold, t.Fluid.Name, t.Wash)
			res.Routes = append(res.Routes, RoutedTask{Task: t, Path: prev})
			reused++
			continue
		}
		var t0 time.Time
		if tr.Enabled() {
			g.sc.stats = searchStats{}
			t0 = time.Now()
		}
		p := g.routeTask(t, true)
		if p == nil && pr.RipUpRounds > 0 {
			p = ripUpRecover(g, res, t, true, pr.RipUpRounds, tr)
		}
		if p == nil {
			return nil, noPathError(t)
		}
		if tr.Enabled() {
			st := g.sc.stats
			tr.RouteTask(obs.RouteTask{
				Task: t.ID, From: int(t.From), To: int(t.To),
				Expanded: st.expanded, HeapPeak: st.heapPeak, SlotConflicts: st.slotConflicts,
				PathLen: len(p) - 1, Weighted: true, Dur: time.Since(t0),
			})
		}
		g.commit(t.ID, p, t.Window, t.Hold, t.Fluid.Name, t.Wash)
		res.Routes = append(res.Routes, RoutedTask{Task: t, Path: p})
	}
	tr.Instant(obs.CatRoute, "route.repair",
		obs.Arg{Key: "tasks", Val: float64(len(tasks))},
		obs.Arg{Key: "reused", Val: float64(reused)},
		obs.Arg{Key: "frozen", Val: float64(len(spec.Frozen))})

	// Assemble the canonical task-order Routes (frozen history included)
	// before deriving metrics, so a repaired Result has the same shape as
	// a routeAll Result.
	final := res.Routes
	byID := make(map[int][]Cell, len(final))
	for _, rt := range final {
		byID[rt.Task.ID] = rt.Path
	}
	res.Routes = make([]RoutedTask, 0, len(tasks))
	for _, t := range tasks {
		var p []Cell
		if spec.Frozen[t.ID] {
			p = spec.PrevPaths[t.ID]
		} else {
			p = byID[t.ID]
		}
		res.Routes = append(res.Routes, RoutedTask{Task: t, Path: p})
	}
	finishMetrics(res, g)
	return res, nil
}

// pathFeasible reports whether committing path for task t would conflict
// with nothing currently on the grid and touch no blocked cell. The
// interval logic mirrors Grid.commit: the first cell carries the hold
// window (channel storage), the rest the move window.
func pathFeasible(g *Grid, t Task, path []Cell) bool {
	if len(path) == 0 {
		return false
	}
	hold := t.Hold
	if hold.Empty() {
		hold = t.Window
	}
	for k, c := range path {
		if !g.In(c) {
			return false
		}
		iv := t.Window
		if k == 0 {
			iv = hold
		}
		if !g.usable(c, iv, t.Fluid.Name) {
			return false
		}
		if k > 0 {
			dx, dy := c.X-path[k-1].X, c.Y-path[k-1].Y
			if dx*dx+dy*dy != 1 {
				return false
			}
		}
	}
	return g.onRing(t.From, path[0]) && g.onRing(t.To, path[len(path)-1])
}
