package fault

import "time"

// The injection-point catalogue. Every point a consuming package
// evaluates is registered here with the subsystem that owns it; the chaos
// suite iterates this table and asserts each point is exercised, so a
// point added below without a caller (or vice versa) fails loudly.
const (
	// jobq: the worker pool of the synthesis service.
	JobqWorkerPanic Point = "jobq.worker.panic" // job function panics mid-run
	JobqJobSlow     Point = "jobq.job.slow"     // job takes Delay longer than it should
	JobqQueueStall  Point = "jobq.queue.stall"  // dispatch stalls Delay between pop and run

	// server: the HTTP handlers in front of the queue.
	ServerHandlerError Point = "server.handler.error" // POST /v1/synthesize fails with 500
	ServerResponseSlow Point = "server.response.slow" // handler sleeps Delay before replying

	// solcache: the content-addressed result cache.
	CacheGetMiss Point = "solcache.get.miss" // a present entry is reported missing
	CachePutDrop Point = "solcache.put.drop" // a stored value is silently not written

	// Pipeline stages: evaluated at the same step boundaries as the
	// context-cancellation polls (between scheduling commits, SA
	// temperature steps and per-task routings), strictly outside every
	// RNG and floating-point path.
	ScheduleStepFail Point = "schedule.step.fail"
	PlaceStepFail    Point = "place.step.fail"
	RouteStepFail    Point = "route.step.fail"

	// RouteCellBlocked marks free routing cells defective before routing
	// starts, modelling fabrication defects on the chip (Su &
	// Chakrabarty's fault model): each free cell off the component port
	// rings is evaluated once, in row-major order.
	RouteCellBlocked Point = "route.cell.blocked"

	// session: the long-lived chip-session repair path.
	SessionRepairFail Point = "session.repair.fail" // fault-report repair aborts before the ladder runs
)

// PointInfo describes one registered injection point.
type PointInfo struct {
	Point Point
	Desc  string
}

// registry is ordered for stable iteration in tests and reports.
var registry = []PointInfo{
	{JobqWorkerPanic, "job function panics mid-run (worker must survive)"},
	{JobqJobSlow, "job execution delayed by the policy's Delay"},
	{JobqQueueStall, "worker dispatch stalls between dequeue and run"},
	{ServerHandlerError, "synthesize handler fails with an injected 500"},
	{ServerResponseSlow, "synthesize handler sleeps before replying"},
	{CacheGetMiss, "cache lookup reports a present entry missing"},
	{CachePutDrop, "cache store silently drops the value"},
	{ScheduleStepFail, "scheduling aborts at a commit boundary"},
	{PlaceStepFail, "annealing aborts at a temperature-step boundary"},
	{RouteStepFail, "routing aborts at a task boundary"},
	{RouteCellBlocked, "a free routing cell is defective (blocked)"},
	{SessionRepairFail, "session repair aborts before the escalation ladder runs"},
}

// Points returns the full registered catalogue, in stable order.
func Points() []PointInfo {
	out := make([]PointInfo, len(registry))
	copy(out, registry)
	return out
}

// Known reports whether pt is registered.
func Known(pt Point) bool {
	for _, pi := range registry {
		if pi.Point == pt {
			return true
		}
	}
	return false
}

// DefaultChaos returns the fixed chaos plan `mfload -spawn -chaos` and
// the CI chaos job use: every point armed with moderate probabilities and
// short delays, deterministic in seed. Failure points are throttled by
// Limit so a chaos run degrades the service without starving it.
func DefaultChaos(seed uint64) *Plan {
	p := NewPlan(seed)
	p.Arm(JobqWorkerPanic, Policy{Prob: 0.05, Limit: 8})
	p.Arm(JobqJobSlow, Policy{Prob: 0.10, Delay: 20 * time.Millisecond})
	p.Arm(JobqQueueStall, Policy{Prob: 0.05, Delay: 10 * time.Millisecond})
	p.Arm(ServerHandlerError, Policy{Prob: 0.05, Limit: 8})
	p.Arm(ServerResponseSlow, Policy{Prob: 0.10, Delay: 10 * time.Millisecond})
	p.Arm(CacheGetMiss, Policy{Prob: 0.20})
	p.Arm(CachePutDrop, Policy{Prob: 0.10})
	// The stage-failure probabilities are scaled to how often each
	// boundary is evaluated per job: scheduling polls roughly once per
	// job, annealing dozens of times, routing a handful — equal
	// probabilities would make schedule faults vanishingly rare.
	p.Arm(ScheduleStepFail, Policy{Prob: 0.03, Limit: 4})
	p.Arm(PlaceStepFail, Policy{Prob: 0.002, Limit: 4})
	p.Arm(RouteStepFail, Policy{Prob: 0.008, Limit: 4})
	p.Arm(RouteCellBlocked, Policy{Prob: 0.01})
	p.Arm(SessionRepairFail, Policy{Prob: 0.05, Limit: 4})
	return p
}
