// Package core composes the paper's primary contribution into a single
// deployable unit: Thanos's chained multi-dimensional filter module
// (Figure 8) — an SMBM resource table, a policy compiled onto the
// programmable serial chain pipeline, and the RMT MUX stage that resolves
// conditional fallbacks. This is the hardware-faithful execution path: the
// policy runs on the same Cell/crossbar structures the ASIC model costs,
// with the deterministic per-packet latency §5 promises.
//
// For contexts where pipeline shape constraints don't matter (simulators,
// query engines), policy.Module offers the lighter interpreted path with
// identical semantics.
package core

import (
	"fmt"

	"repro/internal/asic"
	"repro/internal/bitvec"
	"repro/internal/pipeline"
	"repro/internal/policy"
	"repro/internal/smbm"
	"repro/internal/telemetry"
)

// FilterModule is an instantiated Thanos filter module.
type FilterModule struct {
	table    *smbm.SMBM
	pipe     *pipeline.Pipeline
	compiled *policy.Compiled
	params   pipeline.Params
	outs     []*bitvec.Vector // reusable output slice for Process
}

// Config configures a filter module.
type Config struct {
	// Capacity is N, the number of resource slots (and bit-vector width).
	Capacity int
	// Schema names the M metric dimensions.
	Schema policy.Schema
	// Policy is the filter policy to compile onto the pipeline.
	Policy *policy.Policy
	// Params are the pipeline design parameters; the zero value selects
	// the paper's defaults (n=4, f=2, k=4, K=4).
	Params pipeline.Params
}

// New builds a filter module: it allocates the SMBM, compiles the policy
// (operator placement + Benes crossbar routing), and instantiates the
// pipeline.
func New(cfg Config) (*FilterModule, error) {
	if cfg.Capacity <= 0 {
		return nil, fmt.Errorf("core: capacity must be positive")
	}
	if cfg.Policy == nil {
		return nil, fmt.Errorf("core: nil policy")
	}
	params := cfg.Params
	if params == (pipeline.Params{}) {
		params = pipeline.DefaultParams()
	}
	table := smbm.New(cfg.Capacity, len(cfg.Schema.Attrs))
	pipe, compiled, err := policy.NewPipeline(table, cfg.Schema, cfg.Policy, params)
	if err != nil {
		return nil, err
	}
	return &FilterModule{
		table: table, pipe: pipe, compiled: compiled, params: params,
		outs: make([]*bitvec.Vector, len(compiled.OutputLines)),
	}, nil
}

// Table returns the module's resource table for writes (probe processing,
// event-driven updates).
func (m *FilterModule) Table() *smbm.SMBM { return m.table }

// Policy returns the compiled policy.
func (m *FilterModule) Policy() *policy.Policy { return m.compiled.Policy }

// Params returns the pipeline design parameters in use.
func (m *FilterModule) Params() pipeline.Params { return m.params }

// Process runs one packet through the filter pipeline (the packet itself
// passes unmodified, §3) and returns the policy's output tables, one bit
// vector per declared output.
//
// The returned slice and vectors are the module's reusable pipeline
// registers: valid until the next Process call, which overwrites them. The
// steady-state path performs no heap allocations.
func (m *FilterModule) Process() ([]*bitvec.Vector, error) {
	if err := m.compiled.RunInto(m.outs, m.pipe); err != nil {
		return nil, err
	}
	return m.outs, nil
}

// Decide runs one packet and resolves output index out through the
// policy's fallback MUX, returning the id of the first selected resource.
// ok is false when even the fallback is empty.
func (m *FilterModule) Decide(out int) (id int, ok bool) {
	outs, err := m.Process()
	if err != nil {
		// Exec on a validated pipeline cannot fail; surface loudly.
		panic("core: " + err.Error())
	}
	res := policy.Resolve(m.compiled.Policy, outs, out)
	if !res.Any() {
		return 0, false
	}
	return res.FirstSet(), true
}

// StageLabels exposes the pipeline's per-stage telemetry labels so callers
// can register matching chain telemetry.
func (m *FilterModule) StageLabels() []string { return m.pipe.StageLabels() }

// AttachTelemetry wires per-stage pipeline selectivity into the module.
// Pass nil to detach.
func (m *FilterModule) AttachTelemetry(cs *telemetry.ChainStats) {
	m.pipe.AttachTelemetry(cs)
}

// LatencyCycles returns the module's deterministic per-packet latency in
// clock cycles.
func (m *FilterModule) LatencyCycles() uint64 { return m.pipe.Latency() }

// LatencyAtGHz returns the per-packet latency in nanoseconds at the given
// clock rate.
func (m *FilterModule) LatencyAtGHz(ghz float64) float64 {
	if ghz <= 0 {
		panic("core: clock must be positive")
	}
	return float64(m.LatencyCycles()) / ghz
}

// AreaMM2 returns the modeled chip area of the module (pipeline + SMBM) on
// the 15 nm process of §6.
func (m *FilterModule) AreaMM2() float64 {
	n := m.table.Capacity()
	p := m.params
	return asic.PipelineArea(n, p.Inputs, p.Stages, p.ChainLen, p.Fanout) +
		asic.SMBMArea(n, m.table.NumMetrics())
}

// ClockGHz returns the modeled clock rate of the module, the minimum of the
// pipeline's and the SMBM's.
func (m *FilterModule) ClockGHz() float64 {
	pc := asic.PipelineClockGHz(m.table.Capacity())
	sc := asic.SMBMClockGHz(m.table.Capacity(), m.table.NumMetrics())
	if sc < pc {
		return sc
	}
	return pc
}

// ResetState resets the module's stateful filter units.
func (m *FilterModule) ResetState() { m.pipe.ResetState() }
