package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/assay"
	"repro/internal/benchdata"
	"repro/internal/chip"
	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/route"
	"repro/internal/schedule"
	"repro/internal/server"
	"repro/internal/session"
	"repro/internal/solio"
	"repro/internal/unit"
)

// gen.go: every input a run sends is a pure function of (workload, seed,
// seconds). The server only ever sees the generated request bodies; the
// in-process fields next to each body (graph, allocation, options) let
// the traced run and the session replay call the library with exactly
// what the server resolves from that body.

// Workload names.
const (
	serveCold     = "serve-cold"
	serveWarm     = "serve-warm"
	sessionRepair = "session-repair"
)

// Workload shape. The open-loop rates and the closed-loop session count
// are fixed per second of run length, so the work a run does depends on
// --seed and --seconds only, never on timing.
const (
	// coldRate sends 1000 distinct keys in a 25 s run, the fewest that
	// leave ten samples beyond a p99, while the serve-cold mix (~12 ms of
	// server CPU per request on a 2-vCPU x86-64 host) keeps mfserved's
	// two default workers about a quarter busy.
	coldRate = 40.0
	// warmRate is the serve-warm arrival rate: well under the hit path's
	// capacity, and low enough that a 25 s run's jobs plus the pre-fill
	// all stay pollable (retainedJobs).
	warmRate = 130.0
	// retainedJobs is how many finished jobs mfserved keeps pollable by
	// default (-retain). The output checks read every job of the run
	// after the window, so one server's life creates no more than that.
	retainedJobs = 4096
	// streamPeriod is a session-repair chip stream's request cadence
	// (see closedLoop). A request costs ~2.5 ms of server CPU on a
	// 2-vCPU x86-64 host, so the server stays well short of saturation
	// and a repair's latency is its service time, not a wait for the CPU.
	streamPeriod = 10 * time.Millisecond

	// coldTable and coldGen are the serve-cold composition unit: every
	// Table I benchmark once plus coldGen small generated assays of
	// coldGenMinOps to coldGenMaxOps operations, so the mix is cheap
	// enough for coldRate and its latency distribution has no gap for a
	// percentile to straddle. In every block Synthetic1 sets portfolio=2
	// and CPA tempering=2: a fixed assignment keeps each block's cost the
	// same, where a seeded one let the run's tail hinge on how often the
	// two-replica anneals landed on Synthetic3 or Synthetic4.
	coldTable     = 7
	coldGen       = 25
	coldGenMinOps = 4
	coldGenMaxOps = 12
	// workingSeeds is how many placement seeds each Table I benchmark has
	// in the pre-filled working set: enough that the quality sums over
	// the set vary little from one run seed to the next.
	workingSeeds = 12
	// workingGen is how many generated assays join the working set.
	workingGen = 8
	// workingGenOps is the operation count of the working set's
	// generated assays.
	workingGenOps = 12

	// faultsPerSession is how many fault reports each session sends.
	// scriptsPerBase is how many fault sequences each working-set
	// solution gets: a repair's cost depends on where its faults land,
	// so more distinct sequences make a run's repair mix, and with it
	// the latency and CPU per repair, vary less from one seed to the
	// next. scriptTries bounds the draws for one solution's sequences.
	faultsPerSession = 6
	scriptsPerBase   = 3
	scriptTries      = 16
)

// sloLimit is each workload's latency limit for slo_attainment: what a
// design-tool client waiting on a fresh synthesis, a client served from
// cache, and a chip stalled mid-assay each tolerate.
var sloLimit = map[string]time.Duration{
	serveCold:     400 * time.Millisecond,
	serveWarm:     50 * time.Millisecond,
	sessionRepair: 30 * time.Millisecond,
}

// genAlloc is the allocation every generated assay is built for and sent
// with (Table I's Synthetic1 allocation).
var genAlloc = chip.Allocation{3, 3, 2, 1}

// synthReq is one synthesis request: the body mfserved receives plus the
// resolved in-process form of the same request.
type synthReq struct {
	Name  string // benchmark name or generated assay name, with its seed
	Body  []byte // POST /v1/synthesize (and POST /v1/sessions) body
	Graph *assay.Graph
	Alloc chip.Allocation
	Opts  core.Options
}

// openOp is one open-loop request: which synthesis request to send and
// when, as an offset from the start of the timed window.
type openOp struct {
	At  time.Duration
	Req int // index into inputs.Reqs
}

// faultStep is one fault report of a session script and what the replay
// says the server must answer.
type faultStep struct {
	Report      session.FaultReport
	Body        []byte
	Rung        string
	Outcome     string
	Fingerprint string
	Solution    *core.Solution // the repaired solution the replay produced
}

// script is one session lifecycle: open a session on a working-set
// solution, report faults at increasing instants, close it.
type script struct {
	Base       int    // index into inputs.Reqs
	OpenPrint  string // fingerprint of the freshly opened session
	Faults     []faultStep
	FinalPrint string
}

// inputs is everything one run sends.
type inputs struct {
	Workload string
	Seconds  int
	// Reqs holds every distinct synthesis request of the run.
	Reqs []synthReq
	// Setup lists the working set every workload's setup pre-fills.
	Setup []int
	// Ops are the open-loop timed requests, sorted by At.
	Ops []openOp
	// Scripts and Sessions drive session-repair: scriptsPerBase scripts
	// per working-set solution that has a channel to fault; session i runs
	// Scripts[Sessions[i]]; stream s runs sessions s, s+2, s+4, ...
	Scripts  []script
	Sessions []int
}

// generate builds the inputs of one run.
func generate(workload string, seed uint64, seconds int) (*inputs, error) {
	if seconds < 1 {
		return nil, fmt.Errorf("--seconds must be at least 1")
	}
	in := &inputs{Workload: workload, Seconds: seconds}
	// Separate streams per concern, so adding draws to one never shifts
	// another.
	root := rng.New(seed ^ 0x5eed_5eed_5eed_5eed)
	seeds, order, arrivals, faults := root.Fork(), root.Fork(), root.Fork(), root.Fork()
	// Placement seeds are distinct within a run and differ across run
	// seeds; a run never reuses one, so every request is a distinct key.
	nextSeed := 1 + seeds.Uint64()%(1<<40)
	take := func() uint64 { s := nextSeed; nextSeed++; return s }

	// Every workload shares one setup: the same seeded working set.
	for _, name := range benchNames() {
		for k := 0; k < workingSeeds; k++ {
			in.Setup = append(in.Setup, in.add(tableReq(name, take(), 0, 0)))
		}
	}
	for k := 0; k < workingGen; k++ {
		in.Setup = append(in.Setup, in.add(genReq(seeds.Uint64(), workingGenOps, take())))
	}

	switch workload {
	case serveCold:
		blockLen := coldTable + coldGen
		n := blockLen * roundUp(coldRate*float64(seconds)/float64(blockLen))
		for len(in.Ops) < n {
			block := make([]int, 0, blockLen)
			for _, name := range benchNames() {
				port, temp := 0, 0
				switch name {
				case "Synthetic1":
					port = 2
				case "CPA":
					temp = 2
				}
				block = append(block, in.add(tableReq(name, take(), port, temp)))
			}
			for j := 0; j < coldGen; j++ {
				ops := coldGenMinOps + seeds.Intn(coldGenMaxOps-coldGenMinOps+1)
				block = append(block, in.add(genReq(seeds.Uint64(), ops, take())))
			}
			for _, p := range order.Perm(len(block)) {
				in.Ops = append(in.Ops, openOp{Req: block[p]})
			}
		}
		in.schedule(arrivals)

	case serveWarm:
		n := len(in.Setup) * roundUp(warmRate*float64(seconds)/float64(len(in.Setup)))
		for len(in.Ops) < n {
			for _, p := range order.Perm(len(in.Setup)) {
				in.Ops = append(in.Ops, openOp{Req: in.Setup[p]})
			}
		}
		in.schedule(arrivals)

	case sessionRepair:
		if err := in.sessionScripts(faults); err != nil {
			return nil, err
		}
		n := roundUp(float64(seconds) * streams / ((2 + faultsPerSession) * streamPeriod.Seconds()))
		for len(in.Sessions) < n {
			in.Sessions = append(in.Sessions, order.Perm(len(in.Scripts))...)
		}
		in.Sessions = in.Sessions[:n]

	default:
		return nil, fmt.Errorf("unknown workload %q (want %s, %s or %s)", workload, serveCold, serveWarm, sessionRepair)
	}
	if n := len(in.Setup) + len(in.Ops); n > retainedJobs {
		return nil, fmt.Errorf("%s: %d s create %d job records, more than the %d mfserved keeps pollable; use fewer --seconds", workload, seconds, n, retainedJobs)
	}
	return in, nil
}

func roundUp(x float64) int {
	n := int(x)
	if float64(n) < x {
		n++
	}
	if n < 1 {
		n = 1
	}
	return n
}

func benchNames() []string {
	return []string{"PCR", "IVD", "CPA", "Synthetic1", "Synthetic2", "Synthetic3", "Synthetic4"}
}

func (in *inputs) add(r synthReq) int {
	in.Reqs = append(in.Reqs, r)
	return len(in.Reqs) - 1
}

// schedule draws the open-loop arrival instants: a Poisson process at
// the workload's rate, conditioned on its request count over the run, is
// the sorted set of that many uniform instants in [0, seconds).
func (in *inputs) schedule(r *rng.Source) {
	span := float64(in.Seconds) * float64(time.Second)
	at := make([]time.Duration, len(in.Ops))
	for i := range at {
		at[i] = time.Duration(r.Float64() * span)
	}
	sort.Slice(at, func(i, j int) bool { return at[i] < at[j] })
	for i := range in.Ops {
		in.Ops[i].At = at[i]
	}
}

// digest hashes everything a run sends: the working-set bodies, every
// timed body with its arrival offset, and each session's base body and
// fault reports in the order they go out.
func (in *inputs) digest() string {
	h := sha256.New()
	num := func(v int64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
	for _, ri := range in.Setup {
		h.Write(in.Reqs[ri].Body)
	}
	for _, op := range in.Ops {
		num(int64(op.At))
		h.Write(in.Reqs[op.Req].Body)
	}
	for _, si := range in.Sessions {
		sc := in.Scripts[si]
		h.Write(in.Reqs[sc.Base].Body)
		for _, f := range sc.Faults {
			h.Write(f.Body)
		}
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// tableReq is a Table I benchmark by name at one placement seed. A zero
// portfolio or tempering leaves that option at its default.
func tableReq(name string, seed uint64, portfolio, tempering int) synthReq {
	bm, err := benchdata.ByName(name)
	if err != nil {
		panic(err) // names come from benchNames
	}
	spec, opts := optionsFor(seed)
	label := fmt.Sprintf("%s/seed=%d", name, seed)
	if portfolio > 0 {
		spec.Portfolio = &portfolio
		opts.Portfolio = portfolio
		label += fmt.Sprintf("/portfolio=%d", portfolio)
	}
	if tempering > 0 {
		spec.Tempering = &tempering
		opts.Tempering = tempering
		label += fmt.Sprintf("/tempering=%d", tempering)
	}
	return synthReq{
		Name:  label,
		Body:  mustJSON(server.SynthesizeRequest{Bench: name, Options: spec}),
		Graph: bm.Graph, Alloc: bm.Alloc, Opts: opts,
	}
}

// optionsFor is the request options for one placement seed and their
// resolved form.
func optionsFor(seed uint64) (*server.OptionsSpec, core.Options) {
	opts := core.DefaultOptions()
	opts.Place.Seed = seed
	return &server.OptionsSpec{Seed: &seed}, opts
}

// genReq is a generated assay of ops operations sent inline, built for
// genAlloc.
func genReq(genSeed uint64, ops int, placeSeed uint64) synthReq {
	name := fmt.Sprintf("gen%d-%016x", ops, genSeed)
	g := benchdata.GenerateSynthetic(name, ops, genAlloc, genSeed)
	raw, err := g.MarshalJSON()
	if err != nil {
		panic(err)
	}
	// Resolve from the wire form, exactly as the server does.
	wire, err := assay.Decode(bytes.NewReader(raw))
	if err != nil {
		panic(err)
	}
	spec, opts := optionsFor(placeSeed)
	return synthReq{
		Name: fmt.Sprintf("%s/seed=%d", name, placeSeed),
		Body: mustJSON(server.SynthesizeRequest{
			Assay: raw, Alloc: genAlloc.String(), Options: spec,
		}),
		Graph: wire, Alloc: genAlloc, Opts: opts,
	}
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}

// canonical synthesizes r in-process and returns the solution as the
// server pins it in a session: CPU zeroed, round-tripped through its
// solio document, carrying the request's resolved options.
func canonical(r synthReq) (*core.Solution, error) {
	sol, err := core.SynthesizeContext(context.Background(), r.Graph, r.Alloc, r.Opts)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", r.Name, err)
	}
	sol.CPU = 0
	var buf bytes.Buffer
	if err := solio.Encode(&buf, sol); err != nil {
		return nil, err
	}
	pinned, err := solio.Decode(&buf)
	if err != nil {
		return nil, err
	}
	pinned.Opts = r.Opts
	return pinned, nil
}

// sessionScripts builds the session-repair scripts by replaying each
// session in-process: a fault cell is drawn from the channels of the
// session's current solution whose consumer has not executed at the
// report's instant (the rule mfbench -repair uses), then the replay
// applies the repair so the next fault is drawn against the repaired
// solution. A draw that runs out of live channels or whose replay does
// not repair is discarded and the script redrawn, so every scripted
// report is expected to succeed. Each solution gets up to scriptsPerBase
// scripts in scriptTries draws. Each working-set solution draws from its
// own fork of r, taken in working-set order, so the replays can run two
// at a time and still give the same scripts.
func (in *inputs) sessionScripts(r *rng.Source) error {
	type result struct {
		scripts []script
		err     error
	}
	results := make([]result, len(in.Setup))
	forks := make([]*rng.Source, len(in.Setup))
	for i := range forks {
		forks[i] = r.Fork()
	}
	parallel(len(in.Setup), func(i int) {
		req := in.Reqs[in.Setup[i]]
		sol, err := canonical(req)
		if err != nil {
			results[i].err = err
			return
		}
		if len(liveCells(sol, 0, nil)) == 0 {
			return // no routed channel long enough to have an interior cell
		}
		for try := 0; try < scriptTries && len(results[i].scripts) < scriptsPerBase; try++ {
			if sc, err := replayScript(sol, req, forks[i]); err == nil {
				sc.Base = in.Setup[i]
				results[i].scripts = append(results[i].scripts, sc)
			}
		}
	})
	for _, res := range results {
		if res.err != nil {
			return res.err
		}
		in.Scripts = append(in.Scripts, res.scripts...)
	}
	if len(in.Scripts) == 0 {
		return errors.New("session-repair: no working-set solution has a routed channel to fault")
	}
	return nil
}

// replayScript draws one fault sequence against a fresh session over sol
// and replays it.
func replayScript(sol *core.Solution, req synthReq, r *rng.Source) (script, error) {
	sess, err := session.New("replay", sol, req.Alloc)
	if err != nil {
		return script{}, err
	}
	sc := script{OpenPrint: sess.Snapshot().Fingerprint}
	var dead []route.Cell
	cut := unit.Time(0)
	for k := 0; k < faultsPerSession; k++ {
		cur := sess.Solution()
		// Instants increase through the assay: report k lands in the
		// next 1/(faultsPerSession-k) of the remaining time, or at the
		// previous cut when that stretch has no live channel left.
		span := cur.Schedule.Makespan - cut
		at := cut + unit.Time(float64(span)*r.Float64()/float64(faultsPerSession-k))
		cells := liveCells(cur, at, dead)
		if len(cells) == 0 {
			at = cut
			cells = liveCells(cur, at, dead)
		}
		if len(cells) == 0 {
			return script{}, fmt.Errorf("no live channel ahead of cut %v", cut)
		}
		cell := cells[r.Intn(len(cells))]
		fr := session.FaultReport{At: at, Cells: []route.Cell{cell}}
		rec, err := sess.Repair(context.Background(), fr)
		if err != nil {
			return script{}, err
		}
		sc.Faults = append(sc.Faults, faultStep{
			Report: fr, Body: mustJSON(fr),
			Rung: rec.Rung, Outcome: rec.Outcome, Fingerprint: rec.Fingerprint,
			Solution: sess.Solution(),
		})
		dead = append(dead, cell)
		cut = at
	}
	sc.FinalPrint = sess.Snapshot().Fingerprint
	return sc, nil
}

// liveCells lists the interior cells of every routed channel of sol
// whose transport's consumer has not executed at instant at, skipping
// cells already dead. Endpoints are excluded: they touch component
// ports, and the fault model is a defect on the channel itself.
func liveCells(sol *core.Solution, at unit.Time, dead []route.Cell) []route.Cell {
	executed := schedule.Executed(sol.Schedule, at)
	consumer := make(map[int]assay.OpID, len(sol.Schedule.Transports))
	for _, tr := range sol.Schedule.Transports {
		consumer[tr.ID] = tr.Consumer
	}
	var cells []route.Cell
	seen := make(map[route.Cell]bool)
	for _, c := range dead {
		seen[c] = true
	}
	for _, rt := range sol.Routing.Routes {
		if executed[consumer[rt.Task.ID]] || len(rt.Path) < 3 {
			continue
		}
		for _, c := range rt.Path[1 : len(rt.Path)-1] {
			if !seen[c] {
				seen[c] = true
				cells = append(cells, c)
			}
		}
	}
	return cells
}
