package main

import (
	"fmt"
	"io"
	"math"
)

// side is one result file's values for one (workload, metric).
type side struct {
	med, q1, q3, max float64
	n                int
}

func sideOf(v []float64) side {
	q1, q3 := quartiles(v)
	s := side{med: median(v), q1: q1, q3: q3, n: len(v)}
	for i, x := range v {
		if i == 0 || x > s.max {
			s.max = x
		}
	}
	return s
}

// spread is the quartile distance over the median, the driver's measure.
func (s side) spread() float64 {
	if s.med == 0 {
		return 0
	}
	return math.Abs(s.q3-s.q1) / math.Abs(s.med)
}

// verdict applies the benchmark's own rule to one row: worse when b's median
// is worse than a's by more than the bound, unresolved when either side's
// run-to-run spread is wider than the bound (so the row cannot say
// "unchanged") or a's median is zero (so there is no base to take a share
// of), ok otherwise. failed_ratio, the one absolute bound, is judged on each
// side's worst run: one failing run out of three is a failure.
func verdict(m *metricSpec, a, b side) string {
	if m.AbsBound != 0 {
		if b.max > a.max+m.AbsBound {
			return "worse"
		}
		return "ok"
	}
	if math.Max(a.spread(), b.spread()) > m.Bound {
		return "unresolved"
	}
	if a.med == 0 {
		if b.med == 0 {
			return "ok"
		}
		return "unresolved"
	}
	change := (b.med - a.med) / a.med
	if m.Better == higher {
		change = -change
	}
	if change > m.Bound {
		return "worse"
	}
	return "ok"
}

// valuesOf collects one metric's values over a file's valid untraced runs of
// one workload.
func valuesOf(f *resultFile, workload, metric string) []float64 {
	var v []float64
	for i := range f.Runs {
		r := &f.Runs[i]
		if r.Workload != workload || r.Traced || !r.Valid {
			continue
		}
		if mv, ok := r.Metrics[metric]; ok {
			v = append(v, mv.Value)
		}
	}
	return v
}

// invalidRuns prints every run of f that was marked invalid and reports
// whether there was one: a set with an invalid run in it agrees with nothing.
func invalidRuns(w io.Writer, path string, f *resultFile) bool {
	found := false
	for i := range f.Runs {
		if r := &f.Runs[i]; !r.Valid {
			fmt.Fprintf(w, "INVALID %s: %s seed %d: %v\n", path, r.Workload, r.Seed, r.Invalid)
			found = true
		}
	}
	return found
}

// simIdentity checks that every run of one seed, across both files, executed
// the same events and ended in the same state.
func simIdentity(w io.Writer, a, b *resultFile) bool {
	type key struct {
		workload string
		seed     int64
		seconds  float64
		traced   bool
	}
	seen := map[key]*simInfo{}
	ok := true
	for _, f := range []*resultFile{a, b} {
		for i := range f.Runs {
			r := &f.Runs[i]
			if r.Sim == nil {
				continue
			}
			k := key{r.Workload, r.Seed, r.Seconds, r.Traced}
			first, dup := seen[k]
			if !dup {
				seen[k] = r.Sim
				continue
			}
			if first.Events != r.Sim.Events || first.Digest != r.Sim.Digest {
				fmt.Fprintf(w, "MISMATCH %s seed %d: sim_events %d/%d sim_digest %s/%s\n",
					r.Workload, r.Seed, first.Events, r.Sim.Events, first.Digest, r.Sim.Digest)
				ok = false
			}
		}
	}
	return ok
}

// compareFiles prints one row per (workload, metric) and returns the exit
// code: non-zero on any worse row, on a row one file has values for and the
// other has not, on an invalid run in either file, on a sim_events or
// sim_digest mismatch, or on a higher failed_ratio.
func compareFiles(w io.Writer, pathA, pathB string) int {
	a, err := readResults(pathA)
	if err != nil {
		fmt.Fprintf(w, "benchmark: %v\n", err)
		return 2
	}
	b, err := readResults(pathB)
	if err != nil {
		fmt.Fprintf(w, "benchmark: %v\n", err)
		return 2
	}
	if len(a.Runs) > 0 && len(b.Runs) > 0 {
		ea, eb := a.Runs[0].Env, b.Runs[0].Env
		fmt.Fprintf(w, "a: %s  nproc %d  %s  commit %s  alu-spin %.1f ms\n", pathA, ea.NProc, ea.GoVersion, ea.Commit, ea.ALUSpinMs)
		fmt.Fprintf(w, "b: %s  nproc %d  %s  commit %s  alu-spin %.1f ms\n", pathB, eb.NProc, eb.GoVersion, eb.Commit, eb.ALUSpinMs)
	}
	fmt.Fprintf(w, "%-15s %-20s %-6s %14s %25s %14s %25s %18s %7s  %s\n",
		"workload", "metric", "unit", "a median", "a [q1, q3] n", "b median", "b [q1, q3] n", "b/a", "bound", "verdict")
	code := 0
	for _, wl := range workloads {
		for i := range endToEnd {
			m := &endToEnd[i]
			if !appliesTo(m, wl.Name) {
				continue
			}
			va, vb := valuesOf(a, wl.Name, m.Name), valuesOf(b, wl.Name, m.Name)
			if len(va) == 0 && len(vb) == 0 {
				continue
			}
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(w, "%-15s %-20s %-6s %d valid runs in a, %d in b  missing\n", wl.Name, m.Name, m.Unit, len(va), len(vb))
				code = 1
				continue
			}
			sa, sb := sideOf(va), sideOf(vb)
			v := verdict(m, sa, sb)
			ratio := "n/a"
			if sa.med != 0 {
				ratio = fmt.Sprintf("%.3f x of a's %.4g", sb.med/sa.med, sa.med)
			}
			bound := fmt.Sprintf("%.0f%%", m.Bound*100)
			if m.AbsBound != 0 {
				bound = fmt.Sprintf("+%g", m.AbsBound)
			}
			fmt.Fprintf(w, "%-15s %-20s %-6s %14.4f %25s %14.4f %25s %18s %7s  %s\n",
				wl.Name, m.Name, m.Unit,
				sa.med, fmt.Sprintf("[%.4g, %.4g] %d", sa.q1, sa.q3, sa.n),
				sb.med, fmt.Sprintf("[%.4g, %.4g] %d", sb.q1, sb.q3, sb.n),
				ratio, bound, v)
			if v == "worse" || (m.Name == "failed_ratio" && sb.max > sa.max) {
				code = 1
			}
		}
	}
	if !simIdentity(w, a, b) {
		code = 1
	}
	if ia, ib := invalidRuns(w, pathA, a), invalidRuns(w, pathB, b); ia || ib {
		code = 1
	}
	return code
}
