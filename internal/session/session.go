// Package session keeps a synthesized assay alive across its physical
// execution and repairs it in place when the chip degrades. A session
// pins one solution; fault reports (Su & Chakrabarty's defect model:
// dead valves/channel cells and failed components) arrive stamped with
// the execution instant they were observed at, and the session re-plans
// only the not-yet-executed suffix of the solution — the executed prefix
// is physical history and is never touched.
//
// Repairs escalate through a fixed ladder, cheapest first:
//
//	L1 reroute     cell faults only: schedule and placement frozen, the
//	               surviving transports re-routed around the dead cells
//	               (previous paths reused where still feasible, bounded
//	               rip-up recovery otherwise).
//	L2 reschedule  the suffix is rescheduled off failed components
//	               (schedule.RescheduleSuffix) and re-routed; placement
//	               still frozen.
//	L3 dilate      pre-flight only: the placement is dilated (×1.5 per
//	               try, 3 tries) and everything re-routed.
//	L4 sa          pre-flight only: the placement is re-annealed at
//	               quartered effort with a repair-derived seed.
//
// L3/L4 move component footprints, which is physically impossible once
// any operation has executed — fabricated geometry does not move
// mid-assay — so those rungs are legal only while the executed prefix is
// empty (faults found during priming, before the run starts).
//
// Every successful repair is re-audited from scratch by
// verify.AuditRepair against the pre-repair solution: executed rows
// byte-identical, nothing new before the cut, no surviving work on a
// failed component, frozen routes untouched, no re-planned path through
// a dead cell. A repair that fails its audit escalates to the next rung
// instead of being returned.
//
// Repairs are pure functions of (session solution, accumulated faults,
// report): scheduling is deterministic, route.Repair is always
// sequential, and the L4 re-anneal seed is derived from the session's
// placement seed and the repair index — so the same session seed and the
// same fault-report sequence produce byte-identical solutions at any
// serving pool size, and every repair carries a fingerprint to prove it.
package session

import (
	"context"
	"crypto/sha256"
	"encoding"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"time"

	"repro/internal/chip"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/jsonw"
	"repro/internal/obs"
	"repro/internal/place"
	"repro/internal/route"
	"repro/internal/schedule"
	"repro/internal/solio"
	"repro/internal/unit"
	"repro/internal/verify"
	"repro/internal/whatif"
)

// State is the session lifecycle state.
type State string

const (
	// Active sessions accept fault reports.
	Active State = "active"
	// Abandoned sessions hit an unrepairable fault; the assay is lost.
	Abandoned State = "abandoned"
	// Closed sessions completed (or were closed by the client).
	Closed State = "closed"
)

// Rung names one level of the repair escalation ladder.
const (
	RungReroute    = "reroute"
	RungReschedule = "reschedule"
	RungDilate     = "dilate"
	RungSA         = "sa"
)

// Outcome classifies a repair.
const (
	// OutcomeRepaired: the cheapest rung held — same schedule, same
	// placement, only channels re-planned.
	OutcomeRepaired = "repaired"
	// OutcomeDegraded: a deeper rung was needed; the solution is valid
	// and audited but its quality is not comparable to the original.
	OutcomeDegraded = "degraded"
	// OutcomeAbandoned: no rung produced an auditable solution.
	OutcomeAbandoned = "abandoned"
)

// ErrNotActive rejects fault reports on abandoned or closed sessions.
var ErrNotActive = errors.New("session: not active")

// ErrAbandoned wraps the cause when a repair exhausts the ladder.
var ErrAbandoned = errors.New("session: assay abandoned")

// FaultReport is one observation of chip degradation at execution time
// At: cells that died on the routing plane and components that failed.
type FaultReport struct {
	// At is the execution instant the faults were observed, measured on
	// the solution's schedule clock. Reports must be monotonic: At may
	// not precede an earlier report's At.
	At unit.Time `json:"at"`
	// Cells are dead routing-plane cells (absolute plane coordinates).
	Cells []route.Cell `json:"cells,omitempty"`
	// Comps are failed components.
	Comps []chip.CompID `json:"comps,omitempty"`
}

// RepairRecord is the journal of one repair attempt.
type RepairRecord struct {
	Index   int       `json:"index"`
	At      unit.Time `json:"at"`
	Rung    string    `json:"rung"`
	Outcome string    `json:"outcome"`
	// CellsLost / CompsLost are cumulative over the session's life.
	CellsLost int `json:"cells_lost"`
	CompsLost int `json:"comps_lost"`
	// Makespan is the repaired completion time (zero when abandoned).
	Makespan unit.Time `json:"makespan,omitempty"`
	// Fingerprint is the SHA-256 of the repaired solution's canonical
	// encoding — byte-identical repairs have byte-identical prints.
	Fingerprint string `json:"fingerprint,omitempty"`
	// Escalations lists the rungs that were tried and failed before the
	// recorded rung held.
	Escalations []string      `json:"escalations,omitempty"`
	Err         string        `json:"error,omitempty"`
	Dur         time.Duration `json:"dur_ns"`
}

// Session pins one synthesized solution and repairs it against incoming
// fault reports. All methods are safe for concurrent use.
type Session struct {
	mu sync.Mutex

	id   string
	sol  *core.Solution
	opts core.Options

	state   State
	cut     unit.Time // high-water execution instant
	banned  []bool    // by CompID; failed components
	defects []route.Cell
	repairs []RepairRecord

	singlePoints []string // the base's, read-only
	print        string
	head         head // resumes the print of sol after its document's head
	// fields keeps the router's heuristic fields across repairs of one
	// placement; Close and abandonment drop them, because a retained
	// terminal session must not hold them.
	fields route.Fields
}

// Base is what every session opened on one solution starts from: the
// solution, its print, the state to resume that print after the
// document's head, and the single points of failure of the open-time
// what-if study. A base is read-only once built, so any number of
// sessions may open on it at once, and it holds no routing state.
type Base struct {
	sol          *core.Solution
	print        string
	head         head
	singlePoints []string
}

// NewBase prints the solution and runs a single-failure what-if study
// on it, so each client learns the assay's single points of failure up
// front. The solution is treated as immutable: repairs replace it, never
// mutate it.
func NewBase(sol *core.Solution, alloc chip.Allocation) (*Base, error) {
	if sol == nil || sol.Schedule == nil || sol.Placement == nil || sol.Routing == nil {
		return nil, fmt.Errorf("session: incomplete solution")
	}
	if sol.Baseline {
		return nil, fmt.Errorf("session: baseline solutions cannot be repaired (no storage-aware suffix re-entry)")
	}
	fp, h, err := fingerprint(sol, head{})
	if err != nil {
		return nil, err
	}
	b := &Base{sol: sol, print: fp, head: h}
	if an, err := whatif.SingleFailures(sol.Assay, alloc, sol.Opts.Schedule); err == nil {
		for _, tp := range an.SinglePoints {
			b.singlePoints = append(b.singlePoints, tp.String())
		}
	}
	return b, nil
}

// Open opens a session on a base: a struct copy, with no encoding,
// hashing or scheduling.
func Open(id string, b *Base) *Session {
	return &Session{
		id:           id,
		sol:          b.sol,
		opts:         b.sol.Opts,
		state:        Active,
		banned:       make([]bool, len(b.sol.Comps)),
		singlePoints: b.singlePoints,
		print:        b.print,
		head:         b.head,
	}
}

// New opens a session around an already-synthesized solution, on a base
// of its own (NewBase).
func New(id string, sol *core.Solution, alloc chip.Allocation) (*Session, error) {
	b, err := NewBase(sol, alloc)
	if err != nil {
		return nil, err
	}
	return Open(id, b), nil
}

// ID returns the session identifier.
func (s *Session) ID() string { return s.id }

// Snapshot is the externally visible session state.
type Snapshot struct {
	ID          string         `json:"id"`
	State       State          `json:"state"`
	Cut         unit.Time      `json:"cut"`
	Makespan    unit.Time      `json:"makespan"`
	GridW       int            `json:"grid_w"`
	GridH       int            `json:"grid_h"`
	CellsLost   int            `json:"cells_lost"`
	CompsLost   int            `json:"comps_lost"`
	Fingerprint string         `json:"fingerprint"`
	Repairs     []RepairRecord `json:"repairs,omitempty"`
	// SinglePoints are the component types whose loss makes the assay
	// infeasible (from the open-time what-if study).
	SinglePoints []string `json:"single_points,omitempty"`
}

// WriteJSON writes the snapshot as encoding/json writes it (jsonw's
// format), without reflection.
func (snap *Snapshot) WriteJSON(w *jsonw.Writer) {
	w.Object()
	snap.WriteMembers(w)
	w.EndObject()
}

// WriteMembers writes the snapshot's members, in field order, into the
// object w has open: a reply that embeds a Snapshot writes its own
// members after them, as encoding/json flattens an embedded struct.
func (snap *Snapshot) WriteMembers(w *jsonw.Writer) {
	w.Key("id")
	w.String(snap.ID)
	w.Key("state")
	w.String(string(snap.State))
	w.Key("cut")
	w.Int(int64(snap.Cut))
	w.Key("makespan")
	w.Int(int64(snap.Makespan))
	w.Key("grid_w")
	w.Int(int64(snap.GridW))
	w.Key("grid_h")
	w.Int(int64(snap.GridH))
	w.Key("cells_lost")
	w.Int(int64(snap.CellsLost))
	w.Key("comps_lost")
	w.Int(int64(snap.CompsLost))
	w.Key("fingerprint")
	w.String(snap.Fingerprint)
	if len(snap.Repairs) > 0 {
		w.Key("repairs")
		w.Array()
		for i := range snap.Repairs {
			snap.Repairs[i].WriteJSON(w)
		}
		w.EndArray()
	}
	if len(snap.SinglePoints) > 0 {
		w.Key("single_points")
		writeStrings(w, snap.SinglePoints)
	}
}

// WriteJSON writes the record as encoding/json writes it (jsonw's
// format), without reflection.
func (r *RepairRecord) WriteJSON(w *jsonw.Writer) {
	w.Object()
	w.Key("index")
	w.Int(int64(r.Index))
	w.Key("at")
	w.Int(int64(r.At))
	w.Key("rung")
	w.String(r.Rung)
	w.Key("outcome")
	w.String(r.Outcome)
	w.Key("cells_lost")
	w.Int(int64(r.CellsLost))
	w.Key("comps_lost")
	w.Int(int64(r.CompsLost))
	if r.Makespan != 0 {
		w.Key("makespan")
		w.Int(int64(r.Makespan))
	}
	if r.Fingerprint != "" {
		w.Key("fingerprint")
		w.String(r.Fingerprint)
	}
	if len(r.Escalations) > 0 {
		w.Key("escalations")
		writeStrings(w, r.Escalations)
	}
	if r.Err != "" {
		w.Key("error")
		w.String(r.Err)
	}
	w.Key("dur_ns")
	w.Int(int64(r.Dur))
	w.EndObject()
}

// writeStrings writes a non-empty string slice as an array.
func writeStrings(w *jsonw.Writer, ss []string) {
	w.Array()
	for _, s := range ss {
		w.String(s)
	}
	w.EndArray()
}

// Snapshot returns a copy of the session's visible state.
func (s *Session) Snapshot() Snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	snap := Snapshot{
		ID:           s.id,
		State:        s.state,
		Cut:          s.cut,
		Makespan:     s.sol.Schedule.Makespan,
		GridW:        s.sol.Routing.GridW,
		GridH:        s.sol.Routing.GridH,
		CellsLost:    len(s.defects),
		Fingerprint:  s.print,
		Repairs:      append([]RepairRecord(nil), s.repairs...),
		SinglePoints: slices.Clone(s.singlePoints),
	}
	for _, b := range s.banned {
		if b {
			snap.CompsLost++
		}
	}
	return snap
}

// Solution returns the current (possibly repaired) solution. The caller
// must treat it as read-only.
func (s *Session) Solution() *core.Solution {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sol
}

// Close marks the session finished and drops its kept routing fields.
// Closing is idempotent; an abandoned session stays abandoned. It
// reports whether the session was active.
func (s *Session) Close() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.fields = route.Fields{}
	if s.state != Active {
		return false
	}
	s.state = Closed
	return true
}

// Repair applies one fault report: validates it, escalates through the
// ladder until a rung produces a solution that passes the repair audit,
// and installs the repaired solution. The returned record is also
// appended to the session's repair log. An exhausted ladder (or a
// structurally unrepairable fault) abandons the session and returns an
// error wrapping ErrAbandoned.
func (s *Session) Repair(ctx context.Context, fr FaultReport) (RepairRecord, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t0 := time.Now()

	if s.state != Active {
		return RepairRecord{}, fmt.Errorf("%w (state %s)", ErrNotActive, s.state)
	}
	if err := s.validate(fr); err != nil {
		return RepairRecord{}, err
	}
	if err := fault.From(ctx).Err(fault.SessionRepairFail); err != nil {
		return RepairRecord{}, fmt.Errorf("session: repair aborted: %w", err)
	}
	tr := obs.From(ctx)
	tr.Begin(obs.CatPipeline, "session.repair")
	defer tr.End(obs.CatPipeline, "session.repair")

	// Accumulate the report into working copies; committed only on
	// success or abandonment — a cancelled repair leaves the session
	// untouched and retryable.
	banned := append([]bool(nil), s.banned...)
	for _, c := range fr.Comps {
		banned[c] = true
	}
	defects := append([]route.Cell(nil), s.defects...)
	for _, c := range fr.Cells {
		if !cellKnown(defects, c) {
			defects = append(defects, c)
		}
	}
	compFault := len(fr.Comps) > 0
	executed := schedule.Executed(s.sol.Schedule, fr.At)
	preFlight := true
	for _, ex := range executed {
		if ex {
			preFlight = false
			break
		}
	}

	rec := RepairRecord{Index: len(s.repairs), At: fr.At}
	for _, b := range banned {
		if b {
			rec.CompsLost++
		}
	}
	rec.CellsLost = len(defects)

	var ladder []string
	if !compFault {
		ladder = append(ladder, RungReroute)
	}
	ladder = append(ladder, RungReschedule)
	if preFlight {
		ladder = append(ladder, RungDilate, RungSA)
	}

	var lastErr error
	for _, rung := range ladder {
		sol, err := s.attempt(ctx, rung, fr.At, banned, defects)
		if err != nil {
			if ctx.Err() != nil {
				return RepairRecord{}, fmt.Errorf("session: repair cancelled: %w", err)
			}
			lastErr = err
			if fatal(err) {
				break // deeper rungs cannot create components or fluids
			}
			rec.Escalations = append(rec.Escalations, rung)
			tr.Instant(obs.CatPipeline, "session.escalate")
			continue
		}
		if rep := s.audit(sol, fr.At, banned, defects, rung); !rep.OK() {
			lastErr = fmt.Errorf("session: %s repair failed its audit: %w", rung, rep.Err())
			rec.Escalations = append(rec.Escalations, rung)
			tr.Instant(obs.CatPipeline, "session.escalate")
			continue
		}
		rec.Rung = rung
		rec.Outcome = OutcomeRepaired
		if rung != RungReroute {
			rec.Outcome = OutcomeDegraded
			sol.Degradations = append(sol.Degradations, core.Degradation{
				Stage: "session", Event: rung,
				Detail: fmt.Sprintf("repair %d at %v: %d dead cells, %d failed components",
					rec.Index, fr.At, rec.CellsLost, rec.CompsLost),
			})
		}
		// Print the solution as it is installed, its degradation record
		// included.
		fp, h, err := fingerprint(sol, s.head)
		if err != nil {
			return RepairRecord{}, err
		}
		rec.Makespan = sol.Schedule.Makespan
		rec.Fingerprint = fp
		rec.Dur = time.Since(t0)
		s.sol = sol
		s.print = fp
		s.head = h
		s.cut = fr.At
		s.banned = banned
		s.defects = defects
		s.repairs = append(s.repairs, rec)
		return rec, nil
	}

	if lastErr == nil {
		lastErr = errors.New("session: empty repair ladder")
	}
	rec.Outcome = OutcomeAbandoned
	rec.Err = lastErr.Error()
	rec.Dur = time.Since(t0)
	s.state = Abandoned
	s.fields = route.Fields{}
	s.cut = fr.At
	s.banned = banned
	s.defects = defects
	s.repairs = append(s.repairs, rec)
	return rec, fmt.Errorf("%w: %v", ErrAbandoned, lastErr)
}

// validate rejects malformed fault reports before any state changes.
func (s *Session) validate(fr FaultReport) error {
	if fr.At < s.cut {
		return fmt.Errorf("session: fault report at %v precedes the execution high-water %v", fr.At, s.cut)
	}
	if len(fr.Cells) == 0 && len(fr.Comps) == 0 {
		return fmt.Errorf("session: empty fault report")
	}
	for _, c := range fr.Cells {
		if c.X < 0 || c.Y < 0 || c.X >= s.sol.Routing.GridW || c.Y >= s.sol.Routing.GridH {
			return fmt.Errorf("session: dead cell (%d,%d) outside the %dx%d plane",
				c.X, c.Y, s.sol.Routing.GridW, s.sol.Routing.GridH)
		}
	}
	for _, c := range fr.Comps {
		if int(c) < 0 || int(c) >= len(s.sol.Comps) {
			return fmt.Errorf("session: unknown component %d", c)
		}
	}
	return nil
}

// fatal reports whether a rung failure is structural — no deeper rung
// can conjure a lost fluid, a mid-run component or a missing type.
func fatal(err error) bool {
	return errors.Is(err, schedule.ErrMidExecution) ||
		errors.Is(err, schedule.ErrFluidLost) ||
		errors.Is(err, schedule.ErrNoComponent)
}

// attempt runs one rung of the ladder and returns the candidate repaired
// solution. It never mutates the session.
func (s *Session) attempt(ctx context.Context, rung string, at unit.Time, banned []bool, defects []route.Cell) (*core.Solution, error) {
	rp := s.opts.Route
	if rp.RipUpRounds < 3 {
		rp.RipUpRounds = 3
	}
	switch rung {
	case RungReroute:
		spec := s.routeSpec(s.sol.Schedule, at, defects)
		rt, err := route.Repair(ctx, s.sol.Schedule, s.sol.Comps, s.sol.Placement, rp, spec)
		if err != nil {
			return nil, err
		}
		return s.replace(s.sol.Schedule, s.sol.Placement, rt), nil

	case RungReschedule:
		re, err := schedule.RescheduleSuffixContext(ctx, s.sol.Schedule, at, banned)
		if err != nil {
			return nil, err
		}
		spec := s.routeSpec(re, at, defects)
		rt, err := route.Repair(ctx, re, s.sol.Comps, s.sol.Placement, rp, spec)
		if err != nil {
			return nil, err
		}
		return s.replace(re, s.sol.Placement, rt), nil

	case RungDilate:
		re, err := schedule.RescheduleSuffixContext(ctx, s.sol.Schedule, at, banned)
		if err != nil {
			return nil, err
		}
		var lastErr error
		for k := 1; k <= 3; k++ {
			pl := place.Dilate(s.sol.Placement, math.Pow(1.5, float64(k)))
			spec := route.RepairSpec{Defects: defects, Fields: &s.fields}
			rt, err := route.Repair(ctx, re, s.sol.Comps, pl, rp, spec)
			if err != nil {
				lastErr = err
				if ctx.Err() != nil {
					return nil, err
				}
				continue
			}
			return s.replace(re, pl, rt), nil
		}
		return nil, lastErr

	case RungSA:
		re, err := schedule.RescheduleSuffixContext(ctx, s.sol.Schedule, at, banned)
		if err != nil {
			return nil, err
		}
		pp := s.opts.Place
		if pp.Imax > 4 {
			pp.Imax /= 4
		}
		// A deterministic repair-specific seed: distinct per repair
		// index, reproducible per (session seed, report sequence).
		pp.Seed = s.opts.Place.Seed + 7919*uint64(len(s.repairs)+1)
		nets := place.BuildNets(re, pp.Beta, pp.Gamma)
		pl, err := place.AnnealContext(ctx, s.sol.Comps, nets, pp)
		if err != nil {
			return nil, err
		}
		spec := route.RepairSpec{Defects: defects, Fields: &s.fields}
		rt, err := route.Repair(ctx, re, s.sol.Comps, pl, rp, spec)
		if err != nil {
			return nil, err
		}
		return s.replace(re, pl, rt), nil
	}
	return nil, fmt.Errorf("session: unknown rung %q", rung)
}

// routeSpec builds the routing repair spec for a (possibly rescheduled)
// schedule: frozen transports are those whose consumer has executed,
// matched to their previous paths by dependency edge (IDs are renumbered
// across rescheduling); every other transport gets its previous path as
// a reuse hint.
func (s *Session) routeSpec(sched *schedule.Result, at unit.Time, defects []route.Cell) route.RepairSpec {
	type edge struct{ p, c int }
	prevByEdge := make(map[edge][]route.Cell)
	trOf := make(map[int]schedule.Transport, len(s.sol.Schedule.Transports))
	for _, tr := range s.sol.Schedule.Transports {
		trOf[tr.ID] = tr
	}
	for _, rt := range s.sol.Routing.Routes {
		tr := trOf[rt.Task.ID]
		prevByEdge[edge{int(tr.Producer), int(tr.Consumer)}] = rt.Path
	}
	spec := route.RepairSpec{
		Defects:   defects,
		Frozen:    map[int]bool{},
		PrevPaths: map[int][]route.Cell{},
		Fields:    &s.fields,
	}
	executed := schedule.Executed(sched, at)
	for _, tr := range sched.Transports {
		if p, ok := prevByEdge[edge{int(tr.Producer), int(tr.Consumer)}]; ok {
			spec.PrevPaths[tr.ID] = p
		}
		if executed[tr.Consumer] {
			spec.Frozen[tr.ID] = true
		}
	}
	return spec
}

// replace assembles the repaired solution without touching the previous
// one (which other goroutines may still be reading).
func (s *Session) replace(sched *schedule.Result, pl *place.Placement, rt *route.Result) *core.Solution {
	sol := *s.sol
	sol.Schedule = sched
	sol.Placement = pl
	sol.Routing = rt
	sol.Degradations = append([]core.Degradation(nil), s.sol.Degradations...)
	return &sol
}

// audit re-checks the candidate against the full solution auditor plus
// the repair contract, with the pre-repair solution as the reference.
func (s *Session) audit(sol *core.Solution, at unit.Time, banned []bool, defects []route.Cell, rung string) *verify.Report {
	in := verify.Input{
		Assay:     sol.Assay,
		Comps:     sol.Comps,
		Schedule:  sol.Schedule,
		Placement: sol.Placement,
		Routing:   sol.Routing,
	}
	spec := verify.RepairSpec{
		At:              at,
		Banned:          banned,
		Defects:         defects,
		PrevSchedule:    s.sol.Schedule,
		PrevRouting:     s.sol.Routing,
		PlacementFrozen: rung == RungReroute || rung == RungReschedule,
		PrevPlacement:   s.sol.Placement,
	}
	return verify.AuditRepair(in, spec)
}

// head is the state to resume a print after the head of a solution's
// document (solio.AppendHead): the SHA-256 state and the writer state
// after the head, and the schedule and placement the head encodes. The
// rest of the head (baseline flag, assay, options, components) is the
// same in every solution a session installs, so a solution that keeps
// this schedule and placement has this head. The zero head resumes
// nothing.
type head struct {
	sched  *schedule.Result
	pl     *place.Placement
	digest []byte       // the SHA-256 state, from its MarshalBinary
	w      jsonw.Writer // holding no bytes
}

// fingerprint is the SHA-256 of the solution's canonical encoding with
// the wall-clock measurements zeroed — fingerprints cover solution
// content, and CPU time is the one field that legitimately varies
// between byte-identical runs. When sol keeps h's schedule and
// placement, as a reroute does, only the document's tail is encoded
// and hashed, resumed from h, and h is returned. Otherwise the whole
// document is, into a pooled buffer, and the head returned is sol's.
func fingerprint(sol *core.Solution, h head) (string, head, error) {
	c := *sol
	c.CPU = 0
	c.Stages = core.StageTimes{}
	bp := printBufs.Get().(*[]byte)
	defer printBufs.Put(bp)
	d := sha256.New()
	var w jsonw.Writer
	if h.digest != nil && sol.Schedule == h.sched && sol.Placement == h.pl {
		if err := d.(encoding.BinaryUnmarshaler).UnmarshalBinary(h.digest); err != nil {
			return "", head{}, fmt.Errorf("session: fingerprint: %w", err)
		}
		w = h.w.Resume((*bp)[:0])
	} else {
		w = solio.AppendHead((*bp)[:0], &c)
		d.Write(w.Bytes())
		digest, err := d.(encoding.BinaryMarshaler).MarshalBinary()
		if err != nil {
			return "", head{}, fmt.Errorf("session: fingerprint: %w", err)
		}
		h = head{sched: sol.Schedule, pl: sol.Placement, digest: digest, w: w.Resume(nil)}
		w = w.Resume(w.Bytes()[:0]) // the head is hashed; the tail reuses its bytes
	}
	b, err := solio.AppendTail(w, &c)
	if err != nil {
		return "", head{}, fmt.Errorf("session: fingerprint: %w", err)
	}
	*bp = b[:0]
	d.Write(b)
	return hex.EncodeToString(d.Sum(nil)), h, nil
}

// printBufs recycles fingerprint's documents: a Synthetic4 document is
// ~60 KB, its tail ~16 KB.
var printBufs = sync.Pool{New: func() any { return new([]byte) }}

func cellKnown(cells []route.Cell, c route.Cell) bool {
	for _, k := range cells {
		if k == c {
			return true
		}
	}
	return false
}
