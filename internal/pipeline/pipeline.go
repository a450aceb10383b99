package pipeline

import (
	"fmt"

	"repro/internal/benes"
	"repro/internal/bitvec"
	"repro/internal/smbm"
	"repro/internal/telemetry"
)

// Params are the hardware design parameters of a serial chain pipeline,
// matching §6's enumeration: n pipeline inputs, fan-out f, k stages, and the
// physical K-UFPU chain length.
type Params struct {
	Inputs   int // n: active input/output lines per stage (even, ≥ 2)
	Fanout   int // f: copies of each stage output offered to the next stage
	Stages   int // k: number of pipeline stages
	ChainLen int // K: physical length of each K-UFPU
}

// DefaultParams returns the paper's default design point (§6): n=4, f=2,
// k=4, K=4.
func DefaultParams() Params {
	return Params{Inputs: 4, Fanout: 2, Stages: 4, ChainLen: 4}
}

// Validate checks the parameters for structural sanity.
func (p Params) Validate() error {
	if p.Inputs < 2 || p.Inputs%2 != 0 {
		return fmt.Errorf("pipeline: n must be even and ≥ 2, got %d", p.Inputs)
	}
	if p.Fanout < 1 {
		return fmt.Errorf("pipeline: fan-out must be ≥ 1, got %d", p.Fanout)
	}
	if p.Stages < 1 {
		return fmt.Errorf("pipeline: k must be ≥ 1, got %d", p.Stages)
	}
	if p.ChainLen < 1 {
		return fmt.Errorf("pipeline: chain length must be ≥ 1, got %d", p.ChainLen)
	}
	return nil
}

// StageConfig configures one pipeline stage: which source line feeds each
// cell input, and the per-cell unit configuration.
//
// Sources has one entry per cell input line (2 per cell, n total; entry 2i
// and 2i+1 feed cell i). Each value is a *logical* line index of the
// previous stage's outputs (or of the pipeline inputs, for stage 0) in
// [0, n), or -1 for an unconnected input (which receives an empty table).
// Because each stage output is replicated Fanout times before the crossbar,
// a logical line may appear at most Fanout times across Sources — that is
// the paper's fan-out constraint, enforced by Validate and proven
// realizable on a Benes network by RealizeCrossbar.
type StageConfig struct {
	Sources []int
	Cells   []CellConfig
}

// PassthroughStage returns a StageConfig that forwards line i to line i for
// all n lines.
func PassthroughStage(n int) StageConfig {
	sc := StageConfig{Sources: make([]int, n), Cells: make([]CellConfig, n/2)}
	for i := range sc.Sources {
		sc.Sources[i] = i
	}
	for i := range sc.Cells {
		sc.Cells[i] = PassthroughCell()
	}
	return sc
}

// Config is the full compile-time configuration of a pipeline.
type Config struct {
	Params Params
	Stages []StageConfig
}

// Validate checks the configuration against the parameters.
func (c Config) Validate() error {
	if err := c.Params.Validate(); err != nil {
		return err
	}
	if len(c.Stages) != c.Params.Stages {
		return fmt.Errorf("pipeline: %d stage configs for %d stages", len(c.Stages), c.Params.Stages)
	}
	n := c.Params.Inputs
	for si, sc := range c.Stages {
		if len(sc.Sources) != n {
			return fmt.Errorf("pipeline: stage %d has %d sources, want %d", si, len(sc.Sources), n)
		}
		if len(sc.Cells) != n/2 {
			return fmt.Errorf("pipeline: stage %d has %d cells, want %d", si, len(sc.Cells), n/2)
		}
		uses := make(map[int]int)
		for li, src := range sc.Sources {
			if src == -1 {
				continue
			}
			if src < 0 || src >= n {
				return fmt.Errorf("pipeline: stage %d line %d sources %d, out of [0,%d)", si, li, src, n)
			}
			uses[src]++
			if uses[src] > c.Params.Fanout {
				return fmt.Errorf("pipeline: stage %d uses logical line %d more than fan-out %d times",
					si, src, c.Params.Fanout)
			}
		}
	}
	return nil
}

// Pipeline is an instantiated programmable serial chain pipeline bound to
// one SMBM resource table.
type Pipeline struct {
	cfg     Config
	table   *smbm.SMBM
	stages  [][]*Cell        // [stage][cell]
	xbars   []*benes.Network // per-stage crossbar, for realizability + area
	xbarLat uint64

	// Reusable datapath registers: stages alternate between the two banks
	// of n line vectors (stage s reads bank s−1 mod 2, writes bank s mod 2),
	// so no stage ever writes a vector it is reading. inRefs and lineRefs
	// are scratch reference slices for the stage-0 sources and per-stage
	// crossbar gather; empty is the all-zeros table fed to unconnected
	// inputs. Together they make steady-state Exec allocation-free.
	banks    [2][]*bitvec.Vector
	inRefs   []*bitvec.Vector
	lineRefs []*bitvec.Vector
	empty    *bitvec.Vector

	// stats holds the per-stage invocation/popcount counters; nil unless
	// attached.
	stats *telemetry.ChainStats
}

// CrossbarCycles is the latency charged per stage crossbar traversal. The
// Benes network is combinational but long wires are registered once per
// stage in the hardware model.
const CrossbarCycles = 1

// New instantiates a pipeline over the given table with the given
// configuration. Every stage crossbar mapping is routed on a Benes network
// of size NextPow2(n·f) to prove the configuration physically realizable.
func New(table *smbm.SMBM, cfg Config) (*Pipeline, error) {
	if table == nil {
		return nil, fmt.Errorf("pipeline: nil table")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	p := &Pipeline{cfg: cfg, table: table, xbarLat: CrossbarCycles}
	n := cfg.Params.Inputs
	for si, sc := range cfg.Stages {
		cells := make([]*Cell, n/2)
		for ci, cc := range sc.Cells {
			cell, err := NewCell(table, cfg.Params.ChainLen, cc)
			if err != nil {
				return nil, fmt.Errorf("pipeline: stage %d cell %d: %w", si, ci, err)
			}
			cells[ci] = cell
		}
		p.stages = append(p.stages, cells)

		xb, err := p.routeStageCrossbar(sc.Sources)
		if err != nil {
			return nil, fmt.Errorf("pipeline: stage %d crossbar: %w", si, err)
		}
		p.xbars = append(p.xbars, xb)
	}
	// Both line banks and the all-zeros table live in one cache-line-
	// aligned arena, so a stage's reads and writes walk contiguous memory
	// instead of pointer-chasing per-line allocations.
	width := table.Capacity()
	arena := bitvec.NewBatch(width, 2*n+1)
	p.banks[0] = arena[:n]
	p.banks[1] = arena[n : 2*n]
	p.empty = arena[2*n]
	p.inRefs = make([]*bitvec.Vector, n)
	p.lineRefs = make([]*bitvec.Vector, n)
	return p, nil
}

// StageLabels returns the per-stage telemetry labels ("stage0", "stage1",
// ...), one per pipeline stage. The slice is a fresh copy.
func (p *Pipeline) StageLabels() []string {
	labels := make([]string, len(p.stages))
	for si := range labels {
		labels[si] = fmt.Sprintf("stage%d", si)
	}
	return labels
}

// AttachTelemetry wires per-stage invocation and post-stage popcount
// counters (§5.3 selectivity across the banked pipeline) into this
// pipeline. The handle must have one counter pair per stage — typically
// telemetry.NewChainStats(reg, prefix, p.StageLabels(), shards). Pass nil
// to detach. Panics on a stage-count mismatch.
func (p *Pipeline) AttachTelemetry(cs *telemetry.ChainStats) {
	if cs != nil && cs.Steps() != len(p.stages) {
		panic(fmt.Sprintf("pipeline: ChainStats has %d steps, pipeline has %d stages", cs.Steps(), len(p.stages)))
	}
	p.stats = cs
}

// routeStageCrossbar assigns each requested (logical source → dest line)
// connection a distinct fan-out copy of the source and routes the resulting
// partial permutation on a Benes network, proving the stage interconnect
// realizable with the paper's nf×n crossbar.
func (p *Pipeline) routeStageCrossbar(sources []int) (*benes.Network, error) {
	n, f := p.cfg.Params.Inputs, p.cfg.Params.Fanout
	size := benes.NextPow2(n * f)
	xb, err := benes.New(size)
	if err != nil {
		return nil, err
	}
	perm := make([]int, size)
	for i := range perm {
		perm[i] = -1
	}
	copyUsed := make(map[int]int) // logical line -> copies consumed
	for dest, src := range sources {
		if src == -1 {
			continue
		}
		c := copyUsed[src]
		copyUsed[src] = c + 1
		perm[src*f+c] = dest
	}
	if err := xb.Route(perm); err != nil {
		return nil, err
	}
	return xb, nil
}

// Config returns the pipeline's compile-time configuration.
func (p *Pipeline) Config() Config { return p.cfg }

// Table returns the bound resource table.
func (p *Pipeline) Table() *smbm.SMBM { return p.table }

// Exec pushes one packet's worth of tables through the pipeline. inputs
// must contain n vectors (nil entries are treated as empty tables); the
// returned slice holds the n output tables of the final stage.
//
// The returned slice and its vectors are the pipeline's own stage registers:
// they are valid until the next Exec call, which overwrites them. Callers
// must copy anything they need to keep and must not feed returned vectors
// back in as inputs. Inputs are never written.
//
//thanos:hotpath
func (p *Pipeline) Exec(inputs []*bitvec.Vector) ([]*bitvec.Vector, error) {
	n := p.cfg.Params.Inputs
	width := p.table.Capacity()
	if len(inputs) != n {
		return nil, fmt.Errorf("pipeline: %d inputs, want %d", len(inputs), n)
	}
	cur := p.inRefs
	for i, in := range inputs {
		if in == nil {
			cur[i] = p.empty
			continue
		}
		if in.Len() != width {
			return nil, fmt.Errorf("pipeline: input %d width %d != table capacity %d", i, in.Len(), width)
		}
		cur[i] = in
	}

	for si, cells := range p.stages {
		sc := p.cfg.Stages[si]
		// Crossbar: gather cell input lines from logical sources.
		lines := p.lineRefs
		for li, src := range sc.Sources {
			if src == -1 {
				lines[li] = p.empty
			} else {
				lines[li] = cur[src]
			}
		}
		next := p.banks[si%2]
		for ci, cell := range cells {
			cell.ExecInto(next[2*ci], next[2*ci+1], lines[2*ci], lines[2*ci+1])
		}
		if cs := p.stats; cs != nil {
			// Selectivity provenance: the candidate population after this
			// stage is the popcount across all its output lines.
			pop := 0
			for i := range next {
				pop += next[i].Count()
			}
			cs.Invocations[si].Inc()
			cs.Candidates[si].Add(uint64(pop))
		}
		cur = next
	}
	return cur, nil
}

// Latency returns the end-to-end pipeline latency in clock cycles: per
// stage, one crossbar traversal plus the cell latency (all cells in a stage
// operate in parallel and have identical structural latency).
func (p *Pipeline) Latency() uint64 {
	var total uint64
	for _, cells := range p.stages {
		total += p.xbarLat + cells[0].Latency()
	}
	return total
}

// ResetState resets the runtime state of every stateful unit in every cell.
func (p *Pipeline) ResetState() {
	for _, cells := range p.stages {
		for _, c := range cells {
			c.ResetState()
		}
	}
}
