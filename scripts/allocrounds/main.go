// Command allocrounds shows whether a warm engine converges: it runs the
// scenario shapes of the benchmark's five engine workloads (paper49,
// grid225, mobile100, hotspot49, observed49) for several passes on one
// warm engine per shape and prints the heap allocations per run of each
// pass. On a converged engine every pass after the first allocates the
// same; a pass that allocates more than the pass before it is a
// regression, and the command then exits 1.
//
// The observed shape runs each seed plain and then through the same
// sim.Observer with the metrics collector, journeys on every flow and the
// invariant auditor, as the benchmark's observed49 does.
//
// Usage: go run ./scripts/allocrounds [-passes 4] [-seeds 2] [-shape NAME]
// [-memprofile PREFIX] (scripts/alloc_rounds.sh; `make alloc-rounds`).
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"clnlr/internal/des"
	"clnlr/internal/sim"
)

// shape is one workload's scenario list and how each entry is run.
type shape struct {
	name     string
	runs     []sim.Scenario
	observed bool
}

func paper() sim.Scenario {
	sc := sim.DefaultScenario()
	sc.SessionTime = 10 * des.Second
	return sc
}

// shapes builds the five shapes, each scheme with seeds of its own. The
// scenario values are copies of bench/stack.go's paperScenario,
// gridScenario, mobileScenario and hotspotScenario (measure windows as
// the workloads run them) and must be kept equal to them: bench/ is its
// own module and exports nothing this command could read.
func shapes(seeds int) []shape {
	grid := paper()
	grid.Rows, grid.Cols, grid.AreaM, grid.Flows = 15, 15, 2142.857, 20
	grid.Measure = 20 * des.Second

	mobile := paper()
	mobile.Topology = sim.TopoPerturbedGrid
	mobile.Rows, mobile.Cols, mobile.AreaM, mobile.Flows = 10, 10, 1428.57, 15
	mobile.Measure = 30 * des.Second
	mobile.MobilitySpeed = 5
	mobile.Faults.MeanUpTime = 60 * des.Second
	mobile.Faults.MeanDownTime = 5 * des.Second
	mobile.Faults.Link.MeanGood = 2 * des.Second
	mobile.Faults.Link.MeanBad = 200 * des.Millisecond
	mobile.Faults.Link.LossBad = 0.8

	hotspot := paper()
	hotspot.Measure = 40 * des.Second
	hotspot.Gateway, hotspot.Flows, hotspot.PacketRate = true, 20, 8

	both := []sim.Scheme{sim.SchemeCLNLR, sim.SchemeFlood}
	list := func(base sim.Scenario, schemes []sim.Scheme) []sim.Scenario {
		var out []sim.Scenario
		for k := 0; k < seeds*len(schemes); k++ {
			sc := base.WithScheme(schemes[k%len(schemes)])
			sc.Seed = uint64(k + 1)
			out = append(out, sc)
		}
		return out
	}
	return []shape{
		{name: "paper49", runs: list(paper(), sim.AllSchemes())},
		{name: "grid225", runs: list(grid, both)},
		{name: "mobile100", runs: list(mobile, both)},
		{name: "hotspot49", runs: list(hotspot, both)},
		{name: "observed49", runs: list(paper(), []sim.Scheme{sim.SchemeCLNLR}), observed: true},
	}
}

func main() {
	passes := flag.Int("passes", 4, "passes over each shape's scenario list")
	seeds := flag.Int("seeds", 2, "seeds per scheme in each list")
	only := flag.String("shape", "", "run only the named shape")
	memprofile := flag.String("memprofile", "", "write allocation profiles `prefix`-pass1.pprof and prefix-last.pprof (every allocation recorded)")
	flag.Parse()
	if *memprofile != "" {
		runtime.MemProfileRate = 1
	}
	// One P, as testing.AllocsPerRun has it: the scheduler then starts no
	// spinning thread mid-pass, whose runtime allocations would count.
	runtime.GOMAXPROCS(1)
	if *passes < 2 || *seeds < 1 {
		fmt.Fprintln(os.Stderr, "allocrounds: need -passes ≥ 2 and -seeds ≥ 1")
		os.Exit(2)
	}
	failed := false
	for _, s := range shapes(*seeds) {
		if *only != "" && s.name != *only {
			continue
		}
		var o sim.Observer
		var m0, m1 runtime.MemStats
		fmt.Printf("%-11s", s.name)
		prev, runs := uint64(0), 0
		for p := 0; p < *passes; p++ {
			// Let a collection the last pass started, and the runtime's
			// cleanups after it, which allocate, finish before the count.
			runtime.GC()
			time.Sleep(10 * time.Millisecond)
			runtime.ReadMemStats(&m0)
			runs = 0
			for _, sc := range s.runs {
				if _, err := o.Run(sc, sim.ObserveOptions{}); err != nil {
					fmt.Fprintf(os.Stderr, "\nallocrounds: %s seed %d: %v\n", s.name, sc.Seed, err)
					os.Exit(1)
				}
				runs++
				if !s.observed {
					continue
				}
				sc.Audit = true
				opts := sim.ObserveOptions{Collect: true, Interval: sim.DefaultSampleInterval, JourneyEvery: 1}
				if _, err := o.Run(sc, opts); err != nil {
					fmt.Fprintf(os.Stderr, "\nallocrounds: %s seed %d observed: %v\n", s.name, sc.Seed, err)
					os.Exit(1)
				}
				runs++
			}
			runtime.ReadMemStats(&m1)
			mallocs := m1.Mallocs - m0.Mallocs
			fmt.Printf("  pass %d %9.1f", p+1, float64(mallocs)/float64(runs))
			if p > 0 && mallocs > prev {
				failed = true
				fmt.Print(" ↑")
			}
			prev = mallocs
			if *memprofile != "" && (p == 0 || p == *passes-1) {
				writeProfile(*memprofile, p == 0)
			}
		}
		fmt.Printf("   (mallocs per run, %d runs a pass)\n", runs)
	}
	if failed {
		fmt.Fprintln(os.Stderr, "allocrounds: a pass after the first allocated more than the pass before it (↑)")
		os.Exit(1)
	}
}

// writeProfile writes the allocation profile so far to prefix-pass1.pprof
// or prefix-last.pprof; `go tool pprof -sample_index=alloc_objects -base
// prefix-pass1.pprof prefix-last.pprof` then lists what the later passes
// allocated.
func writeProfile(prefix string, first bool) {
	name := prefix + "-last.pprof"
	if first {
		name = prefix + "-pass1.pprof"
	}
	runtime.GC() // the profile is as of the last completed collection
	f, err := os.Create(name)
	if err == nil {
		err = pprof.Lookup("allocs").WriteTo(f, 0)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "allocrounds:", err)
		os.Exit(1)
	}
}
