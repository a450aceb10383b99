package pipeline

import (
	"testing"

	"repro/internal/bitvec"
	"repro/internal/filter"
	"repro/internal/smbm"
)

func serverTable(t testing.TB) *smbm.SMBM {
	t.Helper()
	// 8 servers with metrics [cpu%, memGB, bwGbps].
	s := smbm.New(8, 3)
	rows := [][3]int64{
		{50, 4, 5}, // 0: passes all
		{90, 8, 9}, // 1: cpu too high
		{30, 0, 3}, // 2: mem too low
		{60, 2, 1}, // 3: bw too low
		{20, 6, 4}, // 4: passes all
		{75, 3, 8}, // 5: cpu too high
		{65, 2, 7}, // 6: passes all
		{10, 9, 2}, // 7: bw == Z, fails strict >
	}
	for id, r := range rows {
		if err := s.Add(id, []int64{r[0], r[1], r[2]}); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

func TestParamsValidate(t *testing.T) {
	bad := []Params{
		{Inputs: 3, Fanout: 2, Stages: 1, ChainLen: 1},
		{Inputs: 0, Fanout: 2, Stages: 1, ChainLen: 1},
		{Inputs: 4, Fanout: 0, Stages: 1, ChainLen: 1},
		{Inputs: 4, Fanout: 2, Stages: 0, ChainLen: 1},
		{Inputs: 4, Fanout: 2, Stages: 1, ChainLen: 0},
	}
	for _, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("%+v should be invalid", p)
		}
	}
	if err := DefaultParams().Validate(); err != nil {
		t.Errorf("default params invalid: %v", err)
	}
}

func TestPassthroughPipelineIsIdentity(t *testing.T) {
	table := serverTable(t)
	params := Params{Inputs: 4, Fanout: 2, Stages: 3, ChainLen: 2}
	cfg := Config{Params: params}
	for i := 0; i < params.Stages; i++ {
		cfg.Stages = append(cfg.Stages, PassthroughStage(params.Inputs))
	}
	p, err := New(table, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ins := []*bitvec.Vector{
		bitvec.FromIDs(8, 1, 2),
		bitvec.FromIDs(8, 3),
		bitvec.New(8),
		bitvec.Ones(8),
	}
	outs, err := p.Exec(ins)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ins {
		if !outs[i].Equal(ins[i]) {
			t.Errorf("line %d: %v != %v", i, outs[i], ins[i])
		}
	}
}

func TestNilInputsBecomeEmptyTables(t *testing.T) {
	table := serverTable(t)
	cfg := Config{
		Params: Params{Inputs: 2, Fanout: 1, Stages: 1, ChainLen: 1},
		Stages: []StageConfig{PassthroughStage(2)},
	}
	p, err := New(table, cfg)
	if err != nil {
		t.Fatal(err)
	}
	outs, err := p.Exec([]*bitvec.Vector{nil, nil})
	if err != nil {
		t.Fatal(err)
	}
	if outs[0].Any() || outs[1].Any() {
		t.Fatal("nil inputs should produce empty outputs")
	}
}

func TestConfigValidationErrors(t *testing.T) {
	n := 4
	good := Config{
		Params: Params{Inputs: n, Fanout: 1, Stages: 1, ChainLen: 1},
		Stages: []StageConfig{PassthroughStage(n)},
	}
	if err := good.Validate(); err != nil {
		t.Fatalf("good config rejected: %v", err)
	}

	c := good
	c.Stages = nil
	if err := c.Validate(); err == nil {
		t.Error("missing stages should fail")
	}

	c = good
	s := PassthroughStage(n)
	s.Sources = []int{0, 1}
	c.Stages = []StageConfig{s}
	if err := c.Validate(); err == nil {
		t.Error("short sources should fail")
	}

	c = good
	s = PassthroughStage(n)
	s.Sources = []int{0, 0, 1, 2} // line 0 used twice with fan-out 1
	c.Stages = []StageConfig{s}
	if err := c.Validate(); err == nil {
		t.Error("fan-out violation should fail")
	}

	c = good
	s = PassthroughStage(n)
	s.Sources = []int{0, 1, 2, 7} // out of range
	c.Stages = []StageConfig{s}
	if err := c.Validate(); err == nil {
		t.Error("out-of-range source should fail")
	}
}

func TestFanoutTwoAllowsDuplication(t *testing.T) {
	table := serverTable(t)
	n := 4
	s := PassthroughStage(n)
	s.Sources = []int{0, 0, 1, 1} // each line duplicated: needs f=2
	cfg := Config{
		Params: Params{Inputs: n, Fanout: 2, Stages: 1, ChainLen: 1},
		Stages: []StageConfig{s},
	}
	p, err := New(table, cfg)
	if err != nil {
		t.Fatal(err)
	}
	in0 := bitvec.FromIDs(8, 2, 4)
	in1 := bitvec.FromIDs(8, 6)
	outs, err := p.Exec([]*bitvec.Vector{in0, in1, nil, nil})
	if err != nil {
		t.Fatal(err)
	}
	if !outs[0].Equal(in0) || !outs[1].Equal(in0) || !outs[2].Equal(in1) || !outs[3].Equal(in1) {
		t.Fatalf("fan-out duplication wrong: %v %v %v %v", outs[0], outs[1], outs[2], outs[3])
	}
}

func TestCellBinaryOp(t *testing.T) {
	table := serverTable(t)
	cc := PassthroughCell()
	cc.B1 = filter.BFPUConfig{Op: filter.BIntersect}
	cell, err := NewCell(table, 2, cc)
	if err != nil {
		t.Fatal(err)
	}
	a := bitvec.FromIDs(8, 1, 2, 3)
	b := bitvec.FromIDs(8, 2, 3, 4)
	o1, o2 := cell.Exec(a, b)
	if got, want := o1.String(), "{2, 3}"; got != want {
		t.Errorf("intersection output = %s, want %s", got, want)
	}
	// B2 is still a no-op choice 1: passes through input 2.
	if !o2.Equal(b) {
		t.Errorf("output 2 = %v, want %v", o2, b)
	}
}

func TestCellSwapInputs(t *testing.T) {
	table := serverTable(t)
	cc := PassthroughCell()
	cc.SwapInputs = true
	cell, err := NewCell(table, 1, cc)
	if err != nil {
		t.Fatal(err)
	}
	a := bitvec.FromIDs(8, 1)
	b := bitvec.FromIDs(8, 2)
	o1, o2 := cell.Exec(a, b)
	if !o1.Equal(b) || !o2.Equal(a) {
		t.Fatal("SwapInputs did not swap")
	}
}

func TestCellKValidation(t *testing.T) {
	table := serverTable(t)
	cc := PassthroughCell()
	cc.U1.K = 3
	if _, err := NewCell(table, 2, cc); err == nil {
		t.Error("K exceeding chain length should fail")
	}
}

// TestFigure14Policy reproduces the worked example of Figure 14: Policy 2 of
// §7.2.2 (resource-aware L4 load balancing) mapped onto a 3-stage, 4-input,
// fan-out-1 pipeline. Output line 1 carries a random pick among servers with
// cpu < X and mem > Y and bw > Z; output line 4 carries a random pick over
// the whole table (the fallback), and an RMT MUX stage after the pipeline
// chooses between them.
func TestFigure14Policy(t *testing.T) {
	table := serverTable(t)
	const X, Y, Z = 70, 1, 2 // cpu < 70%, mem > 1 GB, bw > 2 Gbps
	pred := func(attr int, rel filter.RelOp, val int64) KUFPUOp {
		return KUFPUOp{UFPUConfig: filter.UFPUConfig{Op: filter.UPredicate, Attr: attr, Rel: rel, Val: val}, K: 1}
	}
	noop := KUFPUOp{UFPUConfig: filter.UFPUConfig{Op: filter.UNoOp}, K: 1}
	random := KUFPUOp{UFPUConfig: filter.UFPUConfig{Op: filter.URandom, Seed: 7}, K: 1}

	stage1 := StageConfig{
		Sources: []int{0, 1, 2, 3},
		Cells: []CellConfig{
			{ // cpu<X ∩ mem>Y on lines 1,2
				U1: pred(0, filter.LT, X),
				U2: pred(1, filter.GT, Y),
				B1: filter.BFPUConfig{Op: filter.BIntersect},
				B2: filter.BFPUConfig{Op: filter.BNoOp, Choice: 1},
			},
			{ // bw>Z on line 3; line 4 passes through
				U1: pred(2, filter.GT, Z),
				U2: noop,
				B1: filter.BFPUConfig{Op: filter.BNoOp, Choice: 0},
				B2: filter.BFPUConfig{Op: filter.BNoOp, Choice: 1},
			},
		},
	}
	stage2 := StageConfig{
		Sources: []int{0, 2, 3, -1}, // intersect (cpu∩mem) with bw; carry full table
		Cells: []CellConfig{
			{
				U1: noop, U2: noop,
				B1: filter.BFPUConfig{Op: filter.BIntersect},
				B2: filter.BFPUConfig{Op: filter.BNoOp, Choice: 1},
			},
			PassthroughCell(),
		},
	}
	stage3 := StageConfig{
		Sources: []int{0, -1, -1, 2}, // random over filtered set; random over full table
		Cells: []CellConfig{
			{
				U1: random, U2: noop,
				B1: filter.BFPUConfig{Op: filter.BNoOp, Choice: 0},
				B2: filter.BFPUConfig{Op: filter.BNoOp, Choice: 1},
			},
			{
				U1: noop,
				U2: KUFPUOp{UFPUConfig: filter.UFPUConfig{Op: filter.URandom, Seed: 13}, K: 1},
				B1: filter.BFPUConfig{Op: filter.BNoOp, Choice: 0},
				B2: filter.BFPUConfig{Op: filter.BNoOp, Choice: 1},
			},
		},
	}
	cfg := Config{
		Params: Params{Inputs: 4, Fanout: 1, Stages: 3, ChainLen: 1},
		Stages: []StageConfig{stage1, stage2, stage3},
	}
	p, err := New(table, cfg)
	if err != nil {
		t.Fatal(err)
	}

	members := table.MembersView().Clone()
	eligible := bitvec.FromIDs(8, 0, 4, 6) // servers passing all predicates
	for trial := 0; trial < 100; trial++ {
		outs, err := p.Exec([]*bitvec.Vector{members, members, members, members})
		if err != nil {
			t.Fatal(err)
		}
		o1, o4 := outs[0], outs[3]
		if o1.Count() != 1 || !o1.IsSubset(eligible) {
			t.Fatalf("trial %d: filtered pick = %s, want single member of %s", trial, o1, eligible)
		}
		if o4.Count() != 1 || !o4.IsSubset(members) {
			t.Fatalf("trial %d: fallback pick = %s, want single member", trial, o4)
		}
	}
}

func TestLatencyModel(t *testing.T) {
	table := serverTable(t)
	params := Params{Inputs: 4, Fanout: 2, Stages: 2, ChainLen: 3}
	cfg := Config{Params: params, Stages: []StageConfig{PassthroughStage(4), PassthroughStage(4)}}
	p, err := New(table, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Per stage: crossbar (1) + K-UFPU chain (3×(2+1)=9) + BFPU (1) = 11.
	want := uint64(2 * (CrossbarCycles + 3*(filter.UFPUCycles+filter.IOGenCycles) + filter.BFPUCycles))
	if got := p.Latency(); got != want {
		t.Fatalf("Latency = %d, want %d", got, want)
	}
}

func TestExecInputErrors(t *testing.T) {
	table := serverTable(t)
	cfg := Config{
		Params: Params{Inputs: 2, Fanout: 1, Stages: 1, ChainLen: 1},
		Stages: []StageConfig{PassthroughStage(2)},
	}
	p, err := New(table, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Exec([]*bitvec.Vector{nil}); err == nil {
		t.Error("wrong input count should fail")
	}
	if _, err := p.Exec([]*bitvec.Vector{bitvec.New(4), nil}); err == nil {
		t.Error("wrong input width should fail")
	}
}

func TestPipelineResetState(t *testing.T) {
	table := serverTable(t)
	rr := KUFPUOp{UFPUConfig: filter.UFPUConfig{Op: filter.URoundRobin, Attr: 0}, K: 1}
	sc := PassthroughStage(2)
	sc.Cells[0].U1 = rr
	cfg := Config{
		Params: Params{Inputs: 2, Fanout: 1, Stages: 1, ChainLen: 1},
		Stages: []StageConfig{sc},
	}
	p, err := New(table, cfg)
	if err != nil {
		t.Fatal(err)
	}
	members := table.MembersView().Clone()
	first, _ := p.Exec([]*bitvec.Vector{members, nil})
	p.Exec([]*bitvec.Vector{members, nil})
	p.ResetState()
	again, _ := p.Exec([]*bitvec.Vector{members, nil})
	if !again[0].Equal(first[0]) {
		t.Fatalf("after reset: %v, want %v", again[0], first[0])
	}
}

func BenchmarkPipelineExecDefault128(b *testing.B) {
	table := smbm.New(128, 4)
	for i := 0; i < 128; i++ {
		if err := table.Add(i, []int64{int64(i % 100), int64(i % 7), int64(i % 11), int64(i % 13)}); err != nil {
			b.Fatal(err)
		}
	}
	params := DefaultParams()
	cfg := Config{Params: params}
	for i := 0; i < params.Stages; i++ {
		cfg.Stages = append(cfg.Stages, PassthroughStage(params.Inputs))
	}
	p, err := New(table, cfg)
	if err != nil {
		b.Fatal(err)
	}
	ins := make([]*bitvec.Vector, params.Inputs)
	for i := range ins {
		ins[i] = table.MembersView().Clone()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Exec(ins); err != nil {
			b.Fatal(err)
		}
	}
}
