// Package filter implements Thanos's programmable filter processing units:
// the Unary Filter Processing Unit (UFPU), the Binary Filter Processing Unit
// (BFPU), and the K-UFPU parallel chain (§5.2–§5.3.1 of the paper).
//
// Tables flow between units encoded as bit vectors indexed by resource id
// (§5.2.1), and every unit charges the clock-cycle latency the paper states:
// two cycles per UFPU, one cycle per BFPU. All units are fully pipelined, so
// these latencies bound per-packet delay, not throughput.
package filter

import "fmt"

// UnaryOp selects the operation a UFPU performs (§4.1.1).
type UnaryOp uint8

// Unary filter opcodes.
const (
	UNoOp       UnaryOp = iota // copy input table to output table
	UPredicate                 // keep entries whose attrX satisfies rel_op val
	UMin                       // keep the single entry with minimum attrX
	UMax                       // keep the single entry with maximum attrX
	URoundRobin                // cyclic weighted selection of a single entry
	URandom                    // uniform random selection of a single entry
)

// String returns the opcode's name as used in the paper.
func (op UnaryOp) String() string {
	switch op {
	case UNoOp:
		return "no-op"
	case UPredicate:
		return "predicate"
	case UMin:
		return "min"
	case UMax:
		return "max"
	case URoundRobin:
		return "round-robin"
	case URandom:
		return "random"
	}
	return fmt.Sprintf("UnaryOp(%d)", uint8(op))
}

// NeedsAttr reports whether the opcode reads a metric dimension.
func (op UnaryOp) NeedsAttr() bool {
	switch op {
	case UPredicate, UMin, UMax, URoundRobin:
		return true
	}
	return false
}

// Stateful reports whether the opcode keeps selection state across
// executions (the round-robin pointer, the random LFSR). A unit running a
// stateless opcode over an unchanged table produces the same output table
// on every execution — the property version-keyed read-side caches rely on.
func (op UnaryOp) Stateful() bool {
	return op == URoundRobin || op == URandom
}

// Selects reports whether the opcode picks at most one entry, so that its
// output is fully described by an id (see UFPU.Select).
func (op UnaryOp) Selects() bool { return op >= UMin && op <= URandom }

// BinaryOp selects the operation a BFPU performs (§4.1.2).
type BinaryOp uint8

// Binary filter opcodes.
const (
	BNoOp      BinaryOp = iota // 2:1 MUX of the two input tables
	BUnion                     // set union (bitwise OR)
	BIntersect                 // set intersection (bitwise AND)
	BDiff                      // set difference (bitwise AND-NOT)
)

// String returns the opcode's name as used in the paper.
func (op BinaryOp) String() string {
	switch op {
	case BNoOp:
		return "no-op"
	case BUnion:
		return "union"
	case BIntersect:
		return "intersection"
	case BDiff:
		return "difference"
	}
	return fmt.Sprintf("BinaryOp(%d)", uint8(op))
}

// RelOp is a relational comparison operator for the predicate opcode
// (§4.1.1: rel_op ∈ {<, >, ≤, ≥, ==, ≠}).
type RelOp uint8

// Relational operators.
const (
	LT RelOp = iota
	GT
	LE
	GE
	EQ
	NE
)

// String returns the operator's symbol.
func (r RelOp) String() string {
	switch r {
	case LT:
		return "<"
	case GT:
		return ">"
	case LE:
		return "<="
	case GE:
		return ">="
	case EQ:
		return "=="
	case NE:
		return "!="
	}
	return fmt.Sprintf("RelOp(%d)", uint8(r))
}

// Eval applies the relational operator to (a, b), i.e. "a r b".
func (r RelOp) Eval(a, b int64) bool {
	switch r {
	case LT:
		return a < b
	case GT:
		return a > b
	case LE:
		return a <= b
	case GE:
		return a >= b
	case EQ:
		return a == b
	case NE:
		return a != b
	}
	panic(fmt.Sprintf("filter: invalid RelOp(%d)", uint8(r)))
}

// ParseRelOp converts a symbol like "<" or ">=" to a RelOp.
func ParseRelOp(s string) (RelOp, error) {
	switch s {
	case "<":
		return LT, nil
	case ">":
		return GT, nil
	case "<=":
		return LE, nil
	case ">=":
		return GE, nil
	case "==", "=":
		return EQ, nil
	case "!=":
		return NE, nil
	}
	return 0, fmt.Errorf("filter: unknown relational operator %q", s)
}
