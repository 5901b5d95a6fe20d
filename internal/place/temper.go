package place

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"

	"repro/internal/chip"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/rng"
)

// Parallel tempering (replica exchange) upgrades the independent K-seed
// portfolio to replicas that cooperate: R chains anneal concurrently at a
// fixed geometric temperature ladder spanning [Tmin, T0], and at every
// round boundary adjacent rungs may exchange their chains with the
// Metropolis criterion min(1, exp((β_i-β_j)(E_i-E_j))). Hot rungs explore
// and feed promising basins down the ladder; cold rungs refine them — the
// classic replica-exchange tradeoff that buys more effective search per
// wall-clock second than K isolated restarts.
//
// Determinism is scheduling-independent by construction:
//
//   - Every replica owns its RNG (seeded Seed+rung) and, within a round,
//     its chain (placement, bound arrays, flat nets); replicas never share
//     mutable state there, so stepping them on 1 or N goroutines produces
//     identical chains.
//   - The shared nets slice, and the NetIndex the final quench reads, are
//     read-only for the whole run.
//   - Swap decisions consume a dedicated RNG (derived from Seed only) on
//     the coordinator, in fixed rung order at fixed round boundaries, and
//     one uniform draw is consumed per candidate pair whether or not the
//     swap accepts, so the swap stream never depends on replica content
//     or goroutine interleaving.
//   - The winner is the lowest best-ever energy, ties broken by the
//     smallest rung index.
//
// TestTemperedDeterminism pins byte-identical output across worker-pool
// sizes; the default synthesis path never calls into this file.

// temperReplica is one rung of the ladder: its temperature, its RNG and
// its best-ever placement stay with the rung, while the chain it steps
// moves between rungs at every accepted exchange.
type temperReplica struct {
	temp  float64 // fixed rung temperature
	r     *rng.Source
	ch    *chain
	best  *Placement
	bestE float64
	// round counters for telemetry, reset every round
	accepted, rejected, infeasible int
}

// AnnealTempered runs parallel-tempering placement with the given number
// of replicas, using one worker per available CPU. replicas <= 1
// degenerates to the plain single-seed anneal and reproduces it exactly.
func AnnealTempered(comps []chip.Component, nets []Net, pr Params, replicas int) (*Placement, error) {
	return AnnealTemperedContext(context.Background(), comps, nets, pr, replicas, 0)
}

// AnnealTemperedContext is AnnealTempered with cancellation and an
// explicit worker-pool size (workers <= 0 selects GOMAXPROCS). The output
// is a pure function of (comps, nets, pr, replicas) — the workers value
// changes only the wall-clock, never the result. ctx is polled once per
// round, so a cancelled run aborts within one Imax move batch per
// replica.
func AnnealTemperedContext(ctx context.Context, comps []chip.Component, nets []Net, pr Params, replicas, workers int) (*Placement, error) {
	if replicas <= 1 {
		return AnnealContext(ctx, comps, nets, pr)
	}
	best, ix, err := temperSteps(ctx, comps, nets, pr, replicas, workers)
	if err != nil {
		return nil, err
	}
	if err := quenchCtx(ctx, best, nets, ix, pr.Spacing); err != nil {
		return nil, err
	}
	if err := best.Legal(pr.Spacing); err != nil {
		return nil, fmt.Errorf("place: tempering produced illegal placement: %w", err)
	}
	return best, nil
}

// temperSteps runs the rounds of AnnealTemperedContext, for replicas >= 2,
// and returns the winning rung's best placement, before the final quench,
// with the net index built for it.
func temperSteps(ctx context.Context, comps []chip.Component, nets []Net, pr Params, replicas, workers int) (*Placement, *NetIndex, error) {
	w, h := pr.PlaneW, pr.PlaneH
	if w == 0 || h == 0 {
		w, h = AutoPlane(comps, pr.Spacing)
	}
	if pr.Alpha <= 0 || pr.Alpha >= 1 {
		return nil, nil, fmt.Errorf("place: cooling factor alpha %v outside (0,1)", pr.Alpha)
	}
	if pr.T0 <= pr.Tmin || pr.Tmin <= 0 {
		return nil, nil, fmt.Errorf("place: invalid temperature range T0=%v Tmin=%v", pr.T0, pr.Tmin)
	}
	if err := checkChainRange(comps, w, h, pr.Spacing); err != nil {
		return nil, nil, err
	}
	// Rounds mirror the plain annealer's temperature-step count, so a
	// tempered run spends the same number of moves per replica as one
	// cooling schedule would.
	rounds := 0
	for t := pr.T0; t > pr.Tmin; t *= pr.Alpha {
		rounds++
	}
	ix := BuildNetIndex(len(comps), nets)
	reps := make([]*temperReplica, replicas)
	for i := range reps {
		// Geometric ladder: rung 0 is the hottest (T0), the last rung sits
		// at Tmin. Seeds follow the portfolio convention Seed+rung.
		frac := float64(i) / float64(replicas-1)
		rep := &temperReplica{
			temp: pr.T0 * math.Pow(pr.Tmin/pr.T0, frac),
			r:    rng.New(pr.Seed + uint64(i)),
			ch:   new(chain),
		}
		p, err := randomPlacement(comps, w, h, pr.Spacing, rep.r)
		if err != nil {
			return nil, nil, err
		}
		rep.best = p.Clone()
		rep.ch.init(p, ix, pr.Spacing)
		rep.bestE = rep.ch.cur
		reps[i] = rep
	}
	// The swap stream is keyed on the base seed only; a distinct derivation
	// constant keeps it disjoint from every replica stream.
	swapRng := rng.New(pr.Seed ^ 0xA5A5_5EED_0BAD_F00D)

	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = max(1, min(workers, replicas))

	tr := obs.From(ctx)
	if tr.Enabled() {
		tr.Instant(obs.CatPlace, "temper.replicas",
			obs.Arg{Key: "replicas", Val: float64(replicas)},
			obs.Arg{Key: "rounds", Val: float64(rounds)})
		for i, rep := range reps {
			tid := int64(pr.Seed) + int64(i)
			tr.NameTrack(tid, fmt.Sprintf("temper rung %d T=%.3g", i, rep.temp))
		}
	}
	flt := fault.From(ctx)

	swapsTotal := 0
	for round := 0; round < rounds; round++ {
		if err := ctx.Err(); err != nil {
			return nil, nil, fmt.Errorf("place: tempering aborted at round %d: %w", round, err)
		}
		if err := flt.Err(fault.PlaceStepFail); err != nil {
			return nil, nil, fmt.Errorf("place: tempering aborted at round %d: %w", round, err)
		}
		// Stepping phase: every replica runs Imax moves at its rung
		// temperature. Replicas are mutually independent here, so the
		// worker fan-out is free to schedule them in any order.
		if workers == 1 {
			for _, rep := range reps {
				rep.step(pr.Imax)
			}
		} else {
			jobs := make(chan *temperReplica)
			var wg sync.WaitGroup
			for wk := 0; wk < workers; wk++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for rep := range jobs {
						rep.step(pr.Imax)
					}
				}()
			}
			for _, rep := range reps {
				jobs <- rep
			}
			close(jobs)
			wg.Wait()
		}
		// Swap phase, sequential on the coordinator: adjacent pairs
		// alternate even/odd with the round parity. One uniform draw per
		// pair regardless of outcome keeps the stream content-independent.
		swaps := 0
		for i := round % 2; i+1 < replicas; i += 2 {
			a, b := reps[i], reps[i+1]
			u := swapRng.Float64()
			// β_a < β_b (a is hotter); accept with exp((β_a-β_b)(E_a-E_b)).
			arg := (1/a.temp - 1/b.temp) * (a.ch.cur - b.ch.cur)
			if arg >= 0 || u < math.Exp(arg) {
				a.ch, b.ch = b.ch, a.ch
				swaps++
			}
		}
		swapsTotal += swaps
		if tr.Enabled() {
			tr.Instant(obs.CatPlace, "temper.round",
				obs.Arg{Key: "round", Val: float64(round)},
				obs.Arg{Key: "swaps", Val: float64(swaps)})
			for i, rep := range reps {
				tr.AnnealStep(obs.AnnealStep{
					Seed: pr.Seed + uint64(i), Temp: rep.temp, Cur: rep.ch.cur, Best: rep.bestE,
					Accepted: rep.accepted, Rejected: rep.rejected, Infeasible: rep.infeasible,
				})
			}
		}
	}
	if tr.Enabled() {
		tr.Instant(obs.CatPlace, "temper.done",
			obs.Arg{Key: "swaps", Val: float64(swapsTotal)})
	}

	// Winner: strictly lowest best-ever energy, smallest rung on exact
	// ties — the replica order is fixed, so this is deterministic.
	winner := 0
	for i := 1; i < replicas; i++ {
		if reps[i].bestE < reps[winner].bestE {
			winner = i
		}
	}
	return reps[winner].best, ix, nil
}

// step runs one round of Imax Metropolis moves on the replica's chain at
// its rung temperature.
func (rep *temperReplica) step(imax int) {
	rep.accepted, rep.rejected, rep.infeasible = rep.ch.run(imax, rep.temp, rep.r, rep.best, &rep.bestE)
}
