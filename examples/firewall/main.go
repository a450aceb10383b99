// Network diagnosis and firewall (Figures 5 and 6 of the paper): the
// resource table holds per-source-IP flow statistics maintained by RMT
// counters; one query filters every source whose packet rate exceeds a
// threshold (diagnosis), and a second policy blacklists all sources sending
// to a destination under attack (firewall). Both run as table-wide filters
// — exactly what plain RMT register arrays cannot express (§2.2).
package main

import (
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
	// One resource per tracked flow aggregate: attributes are the packet
	// rate (pps), the destination id the source talks to, and bytes sent.
	module, err := thanos.NewModule(256,
		thanos.Schema{Attrs: []string{"rate", "dst", "bytes"}},
		thanos.MustParsePolicy(`
policy diagnose_and_firewall
# Figure 5: filter all entries with packet rate > 10000 pps.
out hot     = filter(table, rate > 10000)
# Figure 6: if a destination (id 42) is under attack, filter every source
# sending to it, to be black-listed by the RMT stage that follows.
out attack  = intersect(filter(table, dst == 42), filter(table, rate > 1000))
`))
	if err != nil {
		return err
	}

	// Populate from "RMT counters": flows 0..9 are background traffic; 3
	// and 7 are heavy hitters; 5, 7 and 9 all target destination 42.
	type flowStat struct{ rate, dst, bytes int64 }
	flows := map[int]flowStat{
		0: {500, 10, 1 << 20},
		1: {900, 11, 2 << 20},
		2: {4000, 12, 8 << 20},
		3: {25000, 13, 64 << 20}, // heavy hitter
		4: {100, 14, 1 << 18},
		5: {3000, 42, 4 << 20}, // targets 42
		6: {800, 15, 1 << 20},
		7: {90000, 42, 1 << 30}, // heavy hitter targeting 42
		8: {1200, 16, 2 << 20},
		9: {2500, 42, 3 << 20}, // targets 42
	}
	for id, st := range flows {
		if err := module.Upsert(id, []int64{st.rate, st.dst, st.bytes}); err != nil {
			return err
		}
	}

	outs := module.Exec()
	fmt.Fprintf(w, "diagnosis — sources with rate > 10000 pps: %v\n", outs[0].IDs())
	fmt.Fprintf(w, "firewall  — sources attacking destination 42 (rate > 1000): %v\n", outs[1].IDs())

	// The attack subsides for flow 9; the next packet's filtering reflects
	// the updated counter immediately.
	if err := module.Upsert(9, []int64{50, 42, 3 << 20}); err != nil {
		return err
	}
	outs = module.Exec()
	fmt.Fprintf(w, "after flow 9 slows down, blacklist: %v\n", outs[1].IDs())
	return nil
}
