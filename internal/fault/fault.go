// Package fault is a deterministic, seed-driven fault injector for the
// Thanos simulations: it generates a schedule of link failures, switch
// failures and control-plane update loss/delay, and arms that schedule on a
// sim.Scheduler. Every random draw comes from a
// caller-supplied *rand.Rand (normally sim.Scheduler.Rand(), i.e. the
// simulation seed), so the same seed always produces the same fault
// schedule and therefore the same end-to-end simulation results — faults
// included, the experiments stay reproducible.
//
// The package is deliberately mechanism-only: it decides *when* faults
// happen and invokes caller-supplied hooks that decide *what* a fault means
// (netsim's Switch.SetFailed, Port.SetLinkDown, a control plane's resync).
// That keeps it usable across the simulator and the failure-sweep
// experiments.
package fault

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/sim"
)

// Kind labels one scheduled fault event.
type Kind uint8

const (
	// LinkDown fails one duplex link (both directions).
	LinkDown Kind = iota
	// LinkUp restores a previously failed link.
	LinkUp
	// SwitchFail fails a whole switch: it blackholes received packets and
	// its links go down.
	SwitchFail
	// SwitchRecover restores a previously failed switch.
	SwitchRecover
)

func (k Kind) String() string {
	switch k {
	case LinkDown:
		return "link-down"
	case LinkUp:
		return "link-up"
	case SwitchFail:
		return "switch-fail"
	case SwitchRecover:
		return "switch-recover"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Link names one failable duplex link by its switch-side endpoint.
type Link struct {
	Switch int // switch id
	Port   int // port index on that switch
}

// Event is one scheduled fault.
type Event struct {
	At   sim.Time
	Kind Kind
	// Link is the affected link for LinkDown/LinkUp.
	Link Link
	// Switch is the affected switch id for SwitchFail/SwitchRecover.
	Switch int
}

// Plan is a fault schedule, sorted by time (ties keep generation order, so
// a plan is fully determined by its inputs).
type Plan []Event

// Config bounds plan generation. A zero mean disables that fault class.
// Failure and repair gaps are drawn from exponential distributions with the
// given means — the standard memoryless MTTF/MTTR model.
type Config struct {
	// Horizon is the end of the schedule; no event is generated at or
	// beyond it.
	Horizon sim.Time
	// LinkMTTF/LinkMTTR are the mean time to failure/repair per link.
	LinkMTTF sim.Time
	LinkMTTR sim.Time
	// SwitchMTTF/SwitchMTTR are the mean time to failure/repair per switch.
	SwitchMTTF sim.Time
	SwitchMTTR sim.Time
}

// Validate sanity-checks the generation bounds.
func (c Config) Validate() error {
	if c.Horizon <= 0 {
		return fmt.Errorf("fault: non-positive horizon")
	}
	if c.LinkMTTF < 0 || c.LinkMTTR < 0 || c.SwitchMTTF < 0 || c.SwitchMTTR < 0 {
		return fmt.Errorf("fault: negative mean time")
	}
	if (c.LinkMTTF > 0) != (c.LinkMTTR > 0) {
		return fmt.Errorf("fault: link MTTF and MTTR must be set together")
	}
	if (c.SwitchMTTF > 0) != (c.SwitchMTTR > 0) {
		return fmt.Errorf("fault: switch MTTF and MTTR must be set together")
	}
	return nil
}

// expGap draws an exponential inter-event gap with the given mean, floored
// at one time unit so schedules always advance.
func expGap(r *rand.Rand, mean sim.Time) sim.Time {
	g := sim.Time(r.ExpFloat64() * float64(mean))
	if g < 1 {
		g = 1
	}
	return g
}

// NewPlan generates a fault schedule. Entities are processed in the order
// given (links, then switches), each drawing from r in a
// fixed sequence, so identical inputs yield an identical plan. Every
// down/fail event is paired with its up/recover event when the repair lands
// inside the horizon; repairs beyond the horizon are clamped to it so a
// plan never leaves the system permanently degraded unless Horizon cuts
// the run short anyway.
func NewPlan(cfg Config, r *rand.Rand, links []Link, switches []int) (Plan, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	var plan Plan
	if cfg.LinkMTTF > 0 {
		for _, l := range links {
			for t := expGap(r, cfg.LinkMTTF); t < cfg.Horizon; {
				plan = append(plan, Event{At: t, Kind: LinkDown, Link: l})
				up := t + expGap(r, cfg.LinkMTTR)
				if up >= cfg.Horizon {
					up = cfg.Horizon - 1
				}
				plan = append(plan, Event{At: up, Kind: LinkUp, Link: l})
				t = up + expGap(r, cfg.LinkMTTF)
			}
		}
	}
	if cfg.SwitchMTTF > 0 {
		for _, s := range switches {
			for t := expGap(r, cfg.SwitchMTTF); t < cfg.Horizon; {
				plan = append(plan, Event{At: t, Kind: SwitchFail, Switch: s})
				up := t + expGap(r, cfg.SwitchMTTR)
				if up >= cfg.Horizon {
					up = cfg.Horizon - 1
				}
				plan = append(plan, Event{At: up, Kind: SwitchRecover, Switch: s})
				t = up + expGap(r, cfg.SwitchMTTF)
			}
		}
	}
	sort.SliceStable(plan, func(i, j int) bool { return plan[i].At < plan[j].At })
	return plan, nil
}

// Hooks receives fault events as they fire. A nil hook skips that event
// class (it still counts as injected).
type Hooks struct {
	// Link is called with down=true on LinkDown and down=false on LinkUp.
	Link func(l Link, down bool)
	// Switch is called with failed=true on SwitchFail and failed=false on
	// SwitchRecover.
	Switch func(id int, failed bool)
}

// Counts aggregates what an Injector has fired so far.
type Counts struct {
	Injected   uint64 // faults fired: link-down + switch-fail
	Recovered  uint64 // recoveries fired: link-up + switch-recover
	LinkFaults uint64
	SwitchFail uint64
}

// Injector arms fault plans on a scheduler and counts what fires. It is
// single-threaded, like the simulation it runs inside.
type Injector struct {
	sched  *sim.Scheduler
	counts Counts
}

// NewInjector creates an injector bound to sched.
func NewInjector(sched *sim.Scheduler) *Injector {
	return &Injector{sched: sched}
}

// Counts returns the events fired so far.
func (in *Injector) Counts() Counts { return in.counts }

// Arm schedules every event of the plan against the injector's scheduler.
// Events fire in plan order (the scheduler is FIFO at equal timestamps) and
// update the injector's counters before invoking the matching hook.
func (in *Injector) Arm(plan Plan, h Hooks) {
	for _, ev := range plan {
		ev := ev
		in.sched.At(ev.At, func() { in.fire(ev, h) })
	}
}

func (in *Injector) fire(ev Event, h Hooks) {
	switch ev.Kind {
	case LinkDown:
		in.counts.Injected++
		in.counts.LinkFaults++
		if h.Link != nil {
			h.Link(ev.Link, true)
		}
	case LinkUp:
		in.counts.Recovered++
		if h.Link != nil {
			h.Link(ev.Link, false)
		}
	case SwitchFail:
		in.counts.Injected++
		in.counts.SwitchFail++
		if h.Switch != nil {
			h.Switch(ev.Switch, true)
		}
	case SwitchRecover:
		in.counts.Recovered++
		if h.Switch != nil {
			h.Switch(ev.Switch, false)
		}
	}
}
