package policy

import (
	"fmt"

	"repro/internal/bitvec"
	"repro/internal/filter"
	"repro/internal/pipeline"
	"repro/internal/smbm"
)

// Compiled is the result of compiling a policy onto the serial chain
// pipeline: a full pipeline configuration plus the mapping from policy
// outputs to final-stage line indices.
type Compiled struct {
	Policy      *Policy
	Schema      Schema
	Config      pipeline.Config
	OutputLines []int // OutputLines[i] = final-stage line carrying output i

	ins []*bitvec.Vector // reusable input-line slice for RunInto
}

// Compile maps a policy's expression DAG onto a pipeline with the given
// parameters, mirroring the compile-time configuration step of §5.3.2:
//
//   - every unary node becomes a K-UFPU slot (half a Cell),
//   - every binary node becomes a full Cell (both K-UFPUs no-op, BFPU 1
//     programmed with the operation),
//   - values needed beyond the stage that produced them are carried forward
//     through no-op slots, and
//   - each stage's source mapping respects the fan-out bound f and is later
//     proven realizable on a Benes network by pipeline.New.
//
// Operators are scheduled as soon as their inputs are available (ASAP). If
// the policy needs more stages, lines, or chain length than the parameters
// provide, Compile returns a descriptive error.
func Compile(p *Policy, schema Schema, params pipeline.Params) (*Compiled, error) {
	if err := p.Validate(schema); err != nil {
		return nil, err
	}
	if err := params.Validate(); err != nil {
		return nil, err
	}
	if len(p.Outputs) > params.Inputs {
		return nil, fmt.Errorf("policy %q: %d outputs exceed pipeline width n=%d",
			p.Name, len(p.Outputs), params.Inputs)
	}
	c := &compiler{
		policy: p,
		schema: schema,
		params: params,
		table:  &Table{},
		seeds:  AssignSeeds(p),
		fusedL: make(map[*Binary]*Unary),
		fusedR: make(map[*Binary]*Unary),
	}
	cfg, outLines, err := c.run()
	if err != nil {
		return nil, fmt.Errorf("policy %q: %w", p.Name, err)
	}
	return &Compiled{
		Policy: p, Schema: schema, Config: cfg, OutputLines: outLines,
		// The input-reference scratch is sized here so RunInto never
		// allocates on the steady-state path.
		ins: make([]*bitvec.Vector, params.Inputs),
	}, nil
}

// NewPipeline compiles the policy and instantiates the resulting pipeline
// over the given table in one step.
func NewPipeline(table *smbm.SMBM, schema Schema, p *Policy, params pipeline.Params) (*pipeline.Pipeline, *Compiled, error) {
	cc, err := Compile(p, schema, params)
	if err != nil {
		return nil, nil, err
	}
	pl, err := pipeline.New(table, cc.Config)
	if err != nil {
		return nil, nil, err
	}
	return pl, cc, nil
}

// Run executes one packet's filtering on an instantiated pipeline: every
// pipeline input line is fed the table's current membership (as in
// Figure 14, where the SMBM table drives all pipeline inputs) and the
// policy's outputs are extracted from their assigned final-stage lines.
//
// The returned vectors are the pipeline's stage registers: valid until the
// pipeline's next execution, which overwrites them.
func (c *Compiled) Run(pl *pipeline.Pipeline) ([]*bitvec.Vector, error) {
	outs := make([]*bitvec.Vector, len(c.OutputLines))
	if err := c.RunInto(outs, pl); err != nil {
		return nil, err
	}
	return outs, nil
}

// RunInto is Run writing the output-table references into a caller-provided
// slice (len = number of policy outputs) instead of allocating one — the
// steady-state datapath. The pipeline reads the table's live membership view
// directly, so a full filter evaluation allocates nothing.
func (c *Compiled) RunInto(dst []*bitvec.Vector, pl *pipeline.Pipeline) error {
	if len(dst) != len(c.OutputLines) {
		return fmt.Errorf("policy: dst holds %d outputs, policy has %d", len(dst), len(c.OutputLines))
	}
	n := c.Config.Params.Inputs
	if len(c.ins) != n {
		return fmt.Errorf("policy: Compiled was not built by Compile: %d input slots, need %d", len(c.ins), n)
	}
	members := pl.Table().MembersView()
	for i := range c.ins {
		c.ins[i] = members
	}
	raw, err := pl.Exec(c.ins)
	if err != nil {
		return err
	}
	for i, ln := range c.OutputLines {
		dst[i] = raw[ln]
	}
	return nil
}

type compiler struct {
	policy *Policy
	schema Schema
	params pipeline.Params
	table  *Table // canonical Table leaf
	seeds  map[*Unary]uint16
	// fusedL/fusedR record, per Binary node, a single-use *Unary child
	// fused into the same Cell (the Figure 14 pattern: "cpu<X ∩ mem>Y"
	// computed by one Cell's two K-UFPUs feeding its BFPU).
	fusedL map[*Binary]*Unary
	fusedR map[*Binary]*Unary
}

// canon maps every *Table instance to the canonical leaf so that manually
// built ASTs with several &Table{} values share pipeline lines.
func (c *compiler) canon(e Expr) Expr {
	if _, ok := e.(*Table); ok {
		return c.table
	}
	return e
}

// job is one placement unit within a stage.
type job struct {
	kind jobKind
	node Expr   // the op node (opUnary/opBinary) or carried value (carry)
	in   []Expr // consumed values (canonical)
}

type jobKind uint8

const (
	opUnary jobKind = iota
	opBinary
	carry
)

func (j job) slots() int {
	if j.kind == opBinary {
		return 2
	}
	return 1
}

func (c *compiler) run() (pipeline.Config, []int, error) {
	n, f, k := c.params.Inputs, c.params.Fanout, c.params.Stages

	// Topological order of op nodes (postorder DFS, outputs in order).
	var ops []Expr
	visited := map[Expr]bool{}
	var walk func(e Expr) error
	walk = func(e Expr) error {
		e = c.canon(e)
		if visited[e] {
			return nil
		}
		visited[e] = true
		switch node := e.(type) {
		case *Table:
			return nil
		case *Unary:
			kk := node.K
			if kk < 1 {
				kk = 1
			}
			if kk > c.params.ChainLen {
				return fmt.Errorf("node %s needs chain length %d, pipeline has %d",
					node, kk, c.params.ChainLen)
			}
			if err := walk(node.Input); err != nil {
				return err
			}
			ops = append(ops, e)
		case *Binary:
			if err := walk(node.Left); err != nil {
				return err
			}
			if err := walk(node.Right); err != nil {
				return err
			}
			ops = append(ops, e)
		}
		return nil
	}
	for _, o := range c.policy.Outputs {
		if err := walk(o.Expr); err != nil {
			return pipeline.Config{}, nil, err
		}
	}

	// Values required at the very end: the policy outputs.
	outSet := map[Expr]bool{}
	for _, o := range c.policy.Outputs {
		outSet[c.canon(o.Expr)] = true
	}

	// Fusion (the Figure 14 pattern): a Binary node absorbs a *Unary child
	// into its own Cell when that child has exactly one consumer and is
	// not itself a policy output — the Cell computes B1(U1(a), U2(b)) in
	// one stage. Fused children are removed from the schedulable op list.
	uses := map[Expr]int{}
	for _, op := range ops {
		for _, in := range c.rawInputsOf(op) {
			uses[in]++
		}
	}
	for out := range outSet {
		uses[out]++
	}
	fusedChild := map[Expr]bool{}
	for _, op := range ops {
		bn, isBin := op.(*Binary)
		if !isBin {
			continue
		}
		if u, ok := bn.Left.(*Unary); ok && uses[Expr(u)] == 1 && !outSet[Expr(u)] {
			c.fusedL[bn] = u
			fusedChild[Expr(u)] = true
		}
		if u, ok := bn.Right.(*Unary); ok && uses[Expr(u)] == 1 && !outSet[Expr(u)] && u != bn.Left {
			c.fusedR[bn] = u
			fusedChild[Expr(u)] = true
		}
	}
	if len(fusedChild) > 0 {
		kept := ops[:0]
		for _, op := range ops {
			if !fusedChild[op] {
				kept = append(kept, op)
			}
		}
		ops = kept
	}

	placed := map[Expr]bool{}
	// live maps each value available at the current stage boundary to the
	// lines carrying it. At the pipeline entrance every line carries the
	// full resource table.
	live := map[Expr][]int{}
	allLines := make([]int, n)
	for i := range allLines {
		allLines[i] = i
	}
	live[Expr(c.table)] = allLines

	var stages []pipeline.StageConfig

	for s := 0; s < k; s++ {
		// Ops whose inputs are all live become ready, in topo order.
		var jobs []job
		for _, op := range ops {
			if placed[op] {
				continue
			}
			ins := c.inputsOf(op)
			ok := true
			for _, in := range ins {
				if _, live0 := live[in]; !live0 {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			kind := opUnary
			if _, isBin := op.(*Binary); isBin {
				kind = opBinary
			}
			jobs = append(jobs, job{kind: kind, node: op, in: ins})
			placed[op] = true
		}

		// Values that must survive this stage: inputs of still-unplaced
		// ops, and policy outputs (which must reach the final stage) that
		// are not being produced right now.
		producedNow := map[Expr]bool{}
		for _, j := range jobs {
			if j.kind != carry {
				producedNow[j.node] = true
			}
		}
		// Collected in deterministic order — topo order of the consuming
		// ops, then declared output order — so the compiled layout (and
		// therefore every downstream crossbar routing) is identical across
		// runs; map iteration here once made carry-slot placement flap.
		needLater := map[Expr]bool{}
		var needOrder []Expr
		addNeed := func(v Expr) {
			if !needLater[v] {
				needLater[v] = true
				needOrder = append(needOrder, v)
			}
		}
		for _, op := range ops {
			if placed[op] {
				continue // produced this stage or earlier
			}
			for _, in := range c.inputsOf(op) {
				if !producedNow[in] {
					addNeed(in)
				}
			}
		}
		for _, o := range c.policy.Outputs {
			if out := c.canon(o.Expr); !producedNow[out] {
				addNeed(out)
			}
		}
		for _, v := range needOrder {
			if _, isLive := live[v]; !isLive {
				// Will become live when produced in a later stage; no
				// carry possible or needed yet.
				continue
			}
			jobs = append(jobs, job{kind: carry, node: v, in: []Expr{v}})
		}

		// Capacity check.
		slots := 0
		for _, j := range jobs {
			slots += j.slots()
		}
		if slots > n {
			return pipeline.Config{}, nil, fmt.Errorf(
				"stage %d needs %d line slots, pipeline width is n=%d", s, slots, n)
		}

		sc, produced, err := c.layoutStage(jobs, live, f, n)
		if err != nil {
			return pipeline.Config{}, nil, fmt.Errorf("stage %d: %w", s, err)
		}
		stages = append(stages, sc)
		live = produced
	}

	for _, op := range ops {
		if !placed[op] {
			return pipeline.Config{}, nil, fmt.Errorf(
				"operators left unplaced after k=%d stages (policy needs a deeper pipeline)", k)
		}
	}
	outLines := make([]int, len(c.policy.Outputs))
	for i, o := range c.policy.Outputs {
		lines, ok := live[c.canon(o.Expr)]
		if !ok || len(lines) == 0 {
			return pipeline.Config{}, nil, fmt.Errorf(
				"output %q not available at final stage (needs more stages to carry it)", o.Name)
		}
		outLines[i] = lines[0]
	}
	cfg := pipeline.Config{Params: c.params, Stages: stages}
	if err := cfg.Validate(); err != nil {
		return pipeline.Config{}, nil, fmt.Errorf("internal: generated config invalid: %w", err)
	}
	return cfg, outLines, nil
}

// rawInputsOf returns an op's direct children, ignoring fusion.
func (c *compiler) rawInputsOf(op Expr) []Expr {
	switch n := op.(type) {
	case *Unary:
		return []Expr{c.canon(n.Input)}
	case *Binary:
		return []Expr{c.canon(n.Left), c.canon(n.Right)}
	}
	return nil
}

// inputsOf returns the values an op consumes from the crossbar, looking
// through fused unary children to their own inputs.
func (c *compiler) inputsOf(op Expr) []Expr {
	switch n := op.(type) {
	case *Unary:
		return []Expr{c.canon(n.Input)}
	case *Binary:
		left, right := c.canon(n.Left), c.canon(n.Right)
		if u, ok := c.fusedL[n]; ok {
			left = c.canon(u.Input)
		}
		if u, ok := c.fusedR[n]; ok {
			right = c.canon(u.Input)
		}
		return []Expr{left, right}
	}
	return nil
}

// layoutStage assigns jobs to cells and lines, builds the StageConfig, and
// returns the map of values to the lines that will carry them out of this
// stage.
func (c *compiler) layoutStage(jobs []job, live map[Expr][]int, f, n int) (pipeline.StageConfig, map[Expr][]int, error) {
	// Source-line allocator: each live line may be read at most f times.
	lineUse := map[int]int{}
	takeSource := func(v Expr) (int, error) {
		lines := live[v]
		for _, ln := range lines {
			if lineUse[ln] < f {
				lineUse[ln]++
				return ln, nil
			}
		}
		return 0, fmt.Errorf("value %s consumed more than fan-out permits (f=%d, lines %v)", v, f, lines)
	}

	sources := make([]int, n)
	for i := range sources {
		sources[i] = -1
	}
	cells := make([]pipeline.CellConfig, n/2)
	for i := range cells {
		cells[i] = pipeline.PassthroughCell()
	}
	produced := map[Expr][]int{}

	// Binary jobs first (they need whole cells), then halves pair up.
	nextCell := 0
	var halves []job
	for _, j := range jobs {
		if j.kind == opBinary {
			if nextCell >= n/2 {
				return pipeline.StageConfig{}, nil, fmt.Errorf("out of cells")
			}
			bn := j.node.(*Binary)
			l, err := takeSource(j.in[0])
			if err != nil {
				return pipeline.StageConfig{}, nil, err
			}
			r, err := takeSource(j.in[1])
			if err != nil {
				return pipeline.StageConfig{}, nil, err
			}
			sources[2*nextCell], sources[2*nextCell+1] = l, r
			cc := pipeline.PassthroughCell()
			cc.B1 = filter.BFPUConfig{Op: bn.Op, Choice: bn.Choice}
			if u, ok := c.fusedL[bn]; ok {
				ucfg, kk, err := unaryConfig(u, c.schema, c.seeds)
				if err != nil {
					return pipeline.StageConfig{}, nil, err
				}
				cc.U1 = pipeline.KUFPUOp{UFPUConfig: ucfg, K: kk}
			}
			if u, ok := c.fusedR[bn]; ok {
				ucfg, kk, err := unaryConfig(u, c.schema, c.seeds)
				if err != nil {
					return pipeline.StageConfig{}, nil, err
				}
				cc.U2 = pipeline.KUFPUOp{UFPUConfig: ucfg, K: kk}
			}
			cells[nextCell] = cc
			produced[j.node] = append(produced[j.node], 2*nextCell)
			nextCell++
		} else {
			halves = append(halves, j)
		}
	}
	for i := 0; i < len(halves); i += 2 {
		if nextCell >= n/2 {
			return pipeline.StageConfig{}, nil, fmt.Errorf("out of cells")
		}
		cc := pipeline.PassthroughCell()
		pair := halves[i:min(i+2, len(halves))]
		for hi, j := range pair {
			line := 2*nextCell + hi
			src, err := takeSource(j.in[0])
			if err != nil {
				return pipeline.StageConfig{}, nil, err
			}
			sources[line] = src
			slot := &cc.U1
			if hi == 1 {
				slot = &cc.U2
			}
			switch j.kind {
			case carry:
				// Leave the slot as configured by PassthroughCell.
				produced[j.node] = append(produced[j.node], line)
			case opUnary:
				un := j.node.(*Unary)
				ucfg, kk, err := unaryConfig(un, c.schema, c.seeds)
				if err != nil {
					return pipeline.StageConfig{}, nil, err
				}
				*slot = pipeline.KUFPUOp{UFPUConfig: ucfg, K: kk}
				produced[j.node] = append(produced[j.node], line)
			}
		}
		cells[nextCell] = cc
		nextCell++
	}
	return pipeline.StageConfig{Sources: sources, Cells: cells}, produced, nil
}
