package main

import "fmt"

// oracle decides whether a reply is right, from the generated table alone —
// it shares no code with the engine. A deterministic output has one exact
// id; a random output may return any id of the satisfying set (the backup
// set when the primary is empty). Under churn the table moves beneath the
// decisions, so the check weakens to "an installed resource".
type oracle struct {
	exact int32    // the one right id, or -1 when the answer is a set
	ok    []uint64 // bitmap of acceptable ids
	n     int
}

func newOracle(w *workloadSpec, table [][]int64) (*oracle, error) {
	o := &oracle{exact: -1, n: len(table), ok: make([]uint64, (len(table)+63)/64)}
	set := func(id int) { o.ok[id/64] |= 1 << (id % 64) }
	if w.Loop == loopChurn {
		for id := range table {
			set(id)
		}
		return o, nil
	}
	switch w.Policy {
	case policyMinCPU:
		best, ties := 0, 0
		for id, row := range table {
			switch {
			case row[0] < table[best][0]:
				best, ties = id, 0
			case id != best && row[0] == table[best][0]:
				ties++
			}
		}
		if ties != 0 {
			return nil, fmt.Errorf("oracle: min(table, cpu) is ambiguous over %d resources", len(table))
		}
		o.exact = int32(best)
		set(best)
	case policyLB:
		// lb.PolicyResourceAware: cpu < 70, mem > 1024, bw > 2000, else any.
		any := false
		for id, row := range table {
			if row[0] < 70 && row[1] > 1024 && row[2] > 2000 {
				set(id)
				any = true
			}
		}
		if !any {
			for id := range table {
				set(id)
			}
		}
	default:
		return nil, fmt.Errorf("oracle: no model for policy %q", w.Policy)
	}
	return o, nil
}

// wrong counts the ids in a reply the oracle rejects.
func (o *oracle) wrong(ids []int32) int {
	bad := 0
	for _, id := range ids {
		if o.exact >= 0 {
			if id != o.exact {
				bad++
			}
			continue
		}
		if id < 0 || int(id) >= o.n || o.ok[id/64]&(1<<(uint(id)%64)) == 0 {
			bad++
		}
	}
	return bad
}
