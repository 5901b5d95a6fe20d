package core

import (
	"context"
	"sync"

	"repro/internal/chip"
	"repro/internal/place"
)

// annealPlacement dispatches the proposed flow's placement search:
// parallel tempering when tempering >= 2 (it subsumes the portfolio —
// replicas already span distinct seeds), otherwise the K-seed portfolio.
func annealPlacement(ctx context.Context, comps []chip.Component, nets []place.Net, pr place.Params, portfolio, tempering int) (*place.Placement, error) {
	if tempering >= 2 {
		return place.AnnealTemperedContext(ctx, comps, nets, pr, tempering, 0)
	}
	return annealPortfolio(ctx, comps, nets, pr, portfolio)
}

// annealPortfolio runs K independent simulated-annealing placements with
// seeds base, base+1, …, base+K-1 concurrently and returns the winner.
// Each anneal is fully deterministic in its seed, and the winner is
// chosen by the deterministic (energy, seed) tie-break — strictly lowest
// Eq. 3 energy first, smallest seed on exact ties — so the portfolio's
// output is a pure function of (inputs, base seed, K) regardless of
// goroutine scheduling. K <= 1 degenerates to the plain single-seed
// anneal and reproduces it exactly.
func annealPortfolio(ctx context.Context, comps []chip.Component, nets []place.Net, pr place.Params, k int) (*place.Placement, error) {
	if k <= 1 {
		return place.AnnealContext(ctx, comps, nets, pr)
	}
	type attempt struct {
		pl     *place.Placement
		energy float64
		err    error
	}
	out := make([]attempt, k)
	var wg sync.WaitGroup
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			pi := pr
			pi.Seed = pr.Seed + uint64(i)
			pl, err := place.AnnealContext(ctx, comps, nets, pi)
			if err != nil {
				out[i] = attempt{err: err}
				return
			}
			// Score with the reference evaluator: the incremental totals
			// inside Anneal are for its own trajectory, the portfolio
			// compares final placements on the verification Energy.
			out[i] = attempt{pl: pl, energy: place.Energy(pl, nets)}
		}(i)
	}
	wg.Wait()
	best := -1
	for i := range out {
		if out[i].err != nil {
			continue
		}
		// Strict < keeps the smallest seed (lowest index) on exact energy
		// ties: out is ordered by seed.
		if best < 0 || out[i].energy < out[best].energy {
			best = i
		}
	}
	if best < 0 {
		return nil, out[0].err
	}
	return out[best].pl, nil
}
