// Quickstart: build a Thanos filter module for resource-aware L4 load
// balancing (Policy 2 of §7.2.2), feed it server metrics as probe
// processing would, and make per-packet placement decisions at line rate.
package main

import (
	"errors"
	"fmt"
	"io"
	"log"
	"os"

	thanos "repro"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run writes the example's report to w.
func run(w io.Writer) error {
	module, err := thanos.NewFilterModule(thanos.ModuleConfig{
		Capacity: 64,
		Schema:   thanos.Schema{Attrs: []string{"cpu", "mem", "bw"}},
		Policy: thanos.MustParsePolicy(`
policy resource_aware_lb
let ok = intersect(filter(table, cpu < 70),
                   filter(table, mem > 1024),
                   filter(table, bw > 2000))
out primary = random(ok)
out backup  = random(table)
fallback primary -> backup
`),
	})
	if err != nil {
		return err
	}

	// Install servers: id, [cpu %, free memory MB, free bandwidth Mb/s].
	servers := map[int][]int64{
		0: {35, 6000, 8000}, // healthy
		1: {88, 6000, 8000}, // CPU-hot
		2: {25, 512, 8000},  // memory-starved
		3: {40, 3000, 4000}, // healthy
	}
	for id, metrics := range servers {
		if err := module.Table().Add(id, metrics); err != nil {
			return err
		}
	}

	fmt.Fprintf(w, "filter module: %d-entry table, %d-cycle pipeline (%.1f ns at %.2f GHz), %.3f mm²\n",
		module.Table().Capacity(), module.LatencyCycles(),
		module.LatencyAtGHz(module.ClockGHz()), module.ClockGHz(), module.AreaMM2())

	counts := map[int]int{}
	for pkt := 0; pkt < 1000; pkt++ {
		server, ok := module.Decide(0)
		if !ok {
			return errors.New("no server available")
		}
		counts[server]++
	}
	// Note the skew between the two eligible servers: the paper's random
	// unit (LFSR index + priority encoder on the next valid entry, §5.2.1)
	// is uniform over dense tables but gap-weighted over sparse filtered
	// subsets — a property of the published datapath this reproduction
	// preserves (see DESIGN.md).
	fmt.Fprintln(w, "placements over 1000 new connections (only healthy servers 0 and 3 are eligible):")
	for id := 0; id < 4; id++ {
		fmt.Fprintf(w, "  server %d: %d\n", id, counts[id])
	}

	// A probe reports server 0 degraded: update its row, decisions follow.
	if err := module.Table().Update(0, []int64{95, 6000, 8000}); err != nil {
		return err
	}
	server, _ := module.Decide(0)
	fmt.Fprintf(w, "after server 0 degrades, next placement: server %d\n", server)
	return nil
}
