package obs

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// slo.go: configurable latency objectives. An objective "p99=250ms"
// asserts that 99% of requests finish within 250 ms; the service counts
// every terminal request as good (within target) or bad (over target,
// or never completed: failed, rejected, shed) per objective, and
// exposes the totals plus the derived attainment and burn rate as
// Prometheus families. Burn rate is the classic SRE quantity: the bad
// fraction divided by the objective's error budget (1 - quantile), so
// 1.0 means the budget burns exactly as fast as it accrues and anything
// sustained above it eventually violates the SLO.

// SLOObjective is one latency objective and its running counters.
type SLOObjective struct {
	Name     string        // "p99"
	Quantile float64       // 0.99
	Target   time.Duration // 250ms
	good     atomic.Int64
	bad      atomic.Int64
}

// SLOSet is the configured objectives. The nil set disables the SLO
// layer: every method no-ops, so call sites never branch.
type SLOSet struct {
	objs []*SLOObjective
}

// SLOStat is one objective's point-in-time report.
type SLOStat struct {
	Name       string
	Quantile   float64
	TargetMs   float64
	Good       int64
	Bad        int64
	Attainment float64 // good/(good+bad); 1.0 with no traffic
	BurnRate   float64 // (bad/total)/(1-quantile)
}

// ParseSLO parses a "-slo p99=250ms,p95=100ms" spec. Each objective is
// pNN[.N]=duration with 0 < NN < 100. An empty spec returns nil (the
// disabled set).
func ParseSLO(spec string) (*SLOSet, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	s := &SLOSet{}
	seen := map[string]bool{}
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		name, val, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("slo: objective %q is not name=duration", part)
		}
		if len(name) < 2 || name[0] != 'p' {
			return nil, fmt.Errorf("slo: objective name %q must be a percentile like p99", name)
		}
		pct, err := strconv.ParseFloat(name[1:], 64)
		if err != nil || pct <= 0 || pct >= 100 {
			return nil, fmt.Errorf("slo: objective name %q must be a percentile like p99", name)
		}
		target, err := time.ParseDuration(val)
		if err != nil || target <= 0 {
			return nil, fmt.Errorf("slo: objective %q needs a positive duration, got %q", name, val)
		}
		if seen[name] {
			return nil, fmt.Errorf("slo: objective %q given twice", name)
		}
		seen[name] = true
		s.objs = append(s.objs, &SLOObjective{Name: name, Quantile: pct / 100, Target: target})
	}
	sort.Slice(s.objs, func(a, b int) bool { return s.objs[a].Quantile < s.objs[b].Quantile })
	return s, nil
}

// Observe counts one completed request's latency against every
// objective.
func (s *SLOSet) Observe(d time.Duration) {
	if s == nil {
		return
	}
	for _, o := range s.objs {
		if d <= o.Target {
			o.good.Add(1)
		} else {
			o.bad.Add(1)
		}
	}
}

// Fail counts a request that never produced a latency — failed,
// rejected or shed — as bad on every objective.
func (s *SLOSet) Fail() {
	if s == nil {
		return
	}
	for _, o := range s.objs {
		o.bad.Add(1)
	}
}

// Stats reports every objective, ordered by quantile.
func (s *SLOSet) Stats() []SLOStat {
	if s == nil {
		return nil
	}
	out := make([]SLOStat, 0, len(s.objs))
	for _, o := range s.objs {
		good, bad := o.good.Load(), o.bad.Load()
		st := SLOStat{
			Name: o.Name, Quantile: o.Quantile,
			TargetMs: float64(o.Target.Microseconds()) / 1000,
			Good:     good, Bad: bad, Attainment: 1,
		}
		if total := good + bad; total > 0 {
			st.Attainment = float64(good) / float64(total)
			st.BurnRate = (float64(bad) / float64(total)) / (1 - o.Quantile)
		}
		out = append(out, st)
	}
	return out
}
