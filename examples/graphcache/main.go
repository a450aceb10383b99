// In-network caching of graph filter queries (§7.2.5): a leaf switch
// caches the most popular course nodes of a graph database in its SMBM and
// answers the most popular filter queries with its filter pipeline; every
// cached answer is verified exact against the server-side engine, then the
// Figure 19 experiment quantifies the latency win.
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"repro/internal/experiments"
	"repro/internal/graphdb"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run writes the example's report to w.
func run(w io.Writer) error {
	// Build the database (a synthetic course catalog) and a query catalog.
	g, err := graphdb.SyntheticCatalog(11, 300)
	if err != nil {
		return err
	}
	qc, err := graphdb.NewQueryCatalog(22, 32)
	if err != nil {
		return err
	}

	// Offline trace analysis found kinds 0..7 most popular: cache them.
	cache := graphdb.NewCache(200)
	installed, err := cache.InstallFor(g, qc, []int{0, 1, 2, 3, 4, 5, 6, 7})
	if err != nil {
		return err
	}
	if err := cache.VerifyAgainst(g, qc); err != nil {
		return err
	}
	fmt.Fprintf(w, "cached %d nodes, installed query kinds %v (all verified exact)\n",
		cache.Len(), installed)

	// Show one cached query answered at the switch.
	if ids, ok := cache.Lookup(installed[0]); ok {
		fmt.Fprintf(w, "query kind %d answered from the switch: %d matching courses\n",
			installed[0], len(ids))
	}
	// Graph navigation stays on the server: prerequisite closure of the
	// first cached course.
	if ids, ok := cache.Lookup(installed[0]); ok && len(ids) > 0 {
		fmt.Fprintf(w, "prerequisite closure of course %d: %v\n",
			ids[0], g.PrereqClosure(ids[0]))
	}

	// Quantify: the Figure 19 experiment on a smaller query stream.
	cfg := experiments.DefaultFig19Config(11)
	cfg.Queries = 1000
	res, err := experiments.Fig19(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "cache hit fraction: %.0f%%\n", 100*res.HitFraction)
	fmt.Fprintf(w, "cached-query speedup: %.1fx – %.1fx (paper band: 2.8x – 4x)\n",
		res.CachedGainMin, res.CachedGainMax)
	return nil
}
