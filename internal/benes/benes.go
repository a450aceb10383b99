// Package benes implements the multistage non-blocking switching network
// Thanos uses in place of monolithic crossbars inside the serial chain
// pipeline (§5.3.2: "instead of using a single large crossbar at each stage,
// Thanos uses a multi-stage non-blocking switching network, such as a clos
// network ... implemented ... using a special multi-stage clos network,
// called Benes network").
//
// A Benes network over n = 2^t terminals is built from 2·log2(n) − 1 columns
// of n/2 two-by-two crossbar switches and can realize any permutation of its
// inputs onto its outputs. Because Thanos configures crossbars at compile
// time (the input policy is fixed), routing is an offline problem; this
// package implements the classic looping algorithm to derive the switch
// settings for any (partial) permutation, and can then propagate signals
// through the configured switches to verify the realized mapping.
package benes

import (
	"fmt"
	"math/bits"
)

// Network is a Benes network over n terminals (n a power of two, n ≥ 2),
// represented recursively: a column of n/2 input switches, upper and lower
// half-size subnetworks, and a column of n/2 output switches. The base case
// n = 2 is a single 2×2 switch.
type Network struct {
	n            int
	inSw, outSw  []bool // per-switch setting: false = straight, true = cross
	upper, lower *Network
}

// New constructs an unconfigured (all-straight) Benes network over n
// terminals. It returns an error unless n is a power of two and n ≥ 2.
func New(n int) (*Network, error) {
	if n < 2 || bits.OnesCount(uint(n)) != 1 {
		return nil, fmt.Errorf("benes: size must be a power of two ≥ 2, got %d", n)
	}
	return build(n), nil
}

func build(n int) *Network {
	nw := &Network{n: n, inSw: make([]bool, n/2)}
	if n > 2 {
		nw.outSw = make([]bool, n/2)
		nw.upper = build(n / 2)
		nw.lower = build(n / 2)
	}
	return nw
}

// Size returns the number of input (and output) terminals.
func (nw *Network) Size() int { return nw.n }

// NumStages returns the number of switch columns, 2·log2(n) − 1.
func (nw *Network) NumStages() int {
	return 2*bits.Len(uint(nw.n-1)) - 1
}

// NumSwitches returns the total number of 2×2 crossbar switches in the
// network: (n/2)·(2·log2(n) − 1). This is the wiring-complexity figure the
// area model in internal/asic charges for each pipeline-stage crossbar.
func (nw *Network) NumSwitches() int {
	return nw.n / 2 * nw.NumStages()
}

// Route configures the switches to realize the given partial permutation:
// perm[in] = out requests that input terminal in be connected to output
// terminal out, and perm[in] = -1 leaves input in unconstrained. Each output
// may be requested by at most one input. Route always succeeds for a valid
// partial permutation (the network is rearrangeably non-blocking); it
// returns an error only for malformed requests. Unconstrained terminals end
// up connected arbitrarily.
func (nw *Network) Route(perm []int) error {
	if len(perm) != nw.n {
		return fmt.Errorf("benes: permutation length %d != network size %d", len(perm), nw.n)
	}
	full := make([]int, nw.n)
	usedOut := make([]bool, nw.n)
	for in, out := range perm {
		full[in] = out
		if out == -1 {
			continue
		}
		if out < 0 || out >= nw.n {
			return fmt.Errorf("benes: output %d for input %d out of range", out, in)
		}
		if usedOut[out] {
			return fmt.Errorf("benes: output %d requested by multiple inputs", out)
		}
		usedOut[out] = true
	}
	// Complete the partial permutation: pair unconstrained inputs with
	// unused outputs in increasing order.
	next := 0
	for in := range full {
		if full[in] != -1 {
			continue
		}
		for usedOut[next] {
			next++
		}
		full[in] = next
		usedOut[next] = true
	}
	nw.route(full)
	return nil
}

// route applies the looping algorithm to a full permutation perm[in]=out.
func (nw *Network) route(perm []int) {
	if nw.n == 2 {
		nw.inSw[0] = perm[0] != 0
		return
	}
	half := nw.n / 2
	// subnet[in] is 0 if the connection from input in routes through the
	// upper subnetwork, 1 for lower, -1 while undecided.
	subnet := make([]int, nw.n)
	for i := range subnet {
		subnet[i] = -1
	}
	inv := make([]int, nw.n) // inv[out] = in
	for in, out := range perm {
		inv[out] = in
	}
	for seed := 0; seed < nw.n; seed++ {
		if subnet[seed] != -1 {
			continue
		}
		// Start a loop: send the seed connection through the upper subnet
		// and alternate constraints until the loop closes.
		in, s := seed, 0
		for {
			subnet[in] = s
			// The output partner (other terminal of the same output
			// switch) must use the opposite subnet.
			out := perm[in]
			partnerOut := out ^ 1
			partnerIn := inv[partnerOut]
			if subnet[partnerIn] != -1 {
				break // loop closed
			}
			subnet[partnerIn] = 1 - s
			// The input partner of partnerIn must use subnet s again.
			in = partnerIn ^ 1
			s = subnet[partnerIn] ^ 1
			if subnet[in] != -1 {
				break
			}
		}
	}
	// Derive switch settings and subpermutations.
	upPerm := make([]int, half)
	loPerm := make([]int, half)
	for in, out := range perm {
		s := subnet[in]
		// Input switch in/2 must deliver input port in%2 to its output
		// port s (0 = upper, 1 = lower): cross iff the ports differ.
		nw.inSw[in/2] = (in % 2) != s
		// Output switch out/2 receives the signal on its input port s and
		// must deliver it to output port out%2.
		nw.outSw[out/2] = s != (out % 2)
		if s == 0 {
			upPerm[in/2] = out / 2
		} else {
			loPerm[in/2] = out / 2
		}
	}
	nw.upper.route(upPerm)
	nw.lower.route(loPerm)
}

// OutputOf traces input terminal in through the configured switches and
// returns the output terminal it reaches. It panics if in is out of range.
func (nw *Network) OutputOf(in int) int {
	if in < 0 || in >= nw.n {
		panic(fmt.Sprintf("benes: input %d out of range [0,%d)", in, nw.n))
	}
	if nw.n == 2 {
		if nw.inSw[0] {
			return in ^ 1
		}
		return in
	}
	// Input switch.
	port := in % 2
	if nw.inSw[in/2] {
		port ^= 1
	}
	var subOut int
	if port == 0 {
		subOut = nw.upper.OutputOf(in / 2)
	} else {
		subOut = nw.lower.OutputOf(in / 2)
	}
	// Output switch subOut: signal arrives on input port `port` (upper→0,
	// lower→1).
	outPort := port
	if nw.outSw[subOut] {
		outPort ^= 1
	}
	return 2*subOut + outPort
}

// Mapping returns the full input→output mapping realized by the current
// switch configuration.
func (nw *Network) Mapping() []int {
	m := make([]int, nw.n)
	for in := 0; in < nw.n; in++ {
		m[in] = nw.OutputOf(in)
	}
	return m
}

// CrosspointsMonolithic returns the crosspoint count of a single monolithic
// rows×cols crossbar, the wiring-complexity baseline the Benes construction
// improves on (used by the ablation bench and the asic package).
func CrosspointsMonolithic(rows, cols int) int { return rows * cols }

// NextPow2 returns the smallest power of two ≥ n (and ≥ 2), the size a Benes
// network must be padded to in order to host an nIn×nOut rectangular
// crossbar such as the nf×n stage crossbars of the serial chain pipeline.
func NextPow2(n int) int {
	if n <= 2 {
		return 2
	}
	return 1 << bits.Len(uint(n-1))
}
