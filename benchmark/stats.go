package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
)

// pctl returns the q-quantile (0..1) of sorted by nearest rank.
func pctl(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[int(q*float64(len(sorted)-1))]
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns Q1 and Q3 as Python's statistics.quantiles(v, n=4)
// (exclusive method) gives them, the rule the driver applies.
func quartiles(v []float64) (q1, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		d := i*(n+1) - j*4
		return (s[j-1]*float64(4-d) + s[j]*float64(d)) / 4
	}
	return at(1), at(3)
}

// slicePctl computes quantile q over each slice's samples and returns the
// median of the slices' values: every slice counts, and one disturbed slice
// does not set the number. beyond is the fewest samples any slice has beyond
// its quantile, total the sample count over all slices.
func slicePctl(slices [][]float64, q float64) (value float64, beyond, total int) {
	var per []float64
	for _, g := range slices {
		total += len(g)
		if len(g) == 0 {
			continue
		}
		s := append([]float64(nil), g...)
		sort.Float64s(s)
		if b := len(s) - 1 - int(q*float64(len(s)-1)); len(per) == 0 || b < beyond {
			beyond = b
		}
		per = append(per, pctl(s, q))
	}
	return median(per), beyond, total
}

func minOf(v []float64) float64 {
	m := 0.0
	for i, x := range v {
		if i == 0 || x < m {
			m = x
		}
	}
	return m
}

// usage is one getrusage(RUSAGE_SELF) reading.
type usage struct {
	cpuNs int64 // user + system
	ctxSw int64 // voluntary + involuntary context switches
}

func readUsage() usage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return usage{}
	}
	return usage{
		cpuNs: ru.Utime.Nano() + ru.Stime.Nano(),
		ctxSw: ru.Nvcsw + ru.Nivcsw,
	}
}

// peakRSSMB reads VmHWM, the process's peak resident set, in MB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			fields := strings.Fields(rest)
			if len(fields) == 0 {
				break
			}
			kb, err := strconv.ParseFloat(fields[0], 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("VmHWM not found in /proc/self/status")
}

// floats converts durations in ns to floats in units of per ns.
func floats(ns []int64, per float64) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = float64(v) / per
	}
	return out
}
