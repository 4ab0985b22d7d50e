// meshsim runs a single wireless-mesh simulation scenario from flags and
// prints its metrics. It is the interactive entry point for exploring the
// simulator; cmd/experiments regenerates the paper's figures.
//
// Example:
//
//	meshsim -scheme clnlr -rows 7 -cols 7 -flows 10 -rate 8 -session 10s -reps 5
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"clnlr/internal/buildinfo"
	"clnlr/internal/des"
	"clnlr/internal/experiments"
	"clnlr/internal/prof"
	"clnlr/internal/sim"
)

// writeTo creates path and streams write into it.
func writeTo(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("meshsim: ")

	profFlags := prof.RegisterFlags(nil)
	var (
		scheme     = flag.String("scheme", "clnlr", "routing scheme: flood|gossip|counter|clnlr|clnlr-2hop|gossip-adaptive")
		topology   = flag.String("topo", "grid", "topology: grid|perturbed-grid|random")
		rows       = flag.Int("rows", 7, "grid rows")
		cols       = flag.Int("cols", 7, "grid cols")
		nodes      = flag.Int("nodes", 50, "node count (random topology)")
		area       = flag.Float64("area", 1000, "deployment area side in metres")
		flows      = flag.Int("flows", 10, "concurrent flows")
		rate       = flag.Float64("rate", 4, "packets per second per flow")
		payload    = flag.Int("payload", 512, "payload bytes per packet")
		poisson    = flag.Bool("poisson", false, "Poisson packet spacing instead of CBR")
		gateway    = flag.Bool("gateway", false, "all flows sink at the centre node")
		session    = flag.Duration("session", 0, "flow session length (0 = immortal flows)")
		warmup     = flag.Duration("warmup", 0, "warm-up period (default 10s)")
		measure    = flag.Duration("measure", 0, "measurement period (default 80s)")
		seed       = flag.Uint64("seed", 1, "base random seed")
		reps       = flag.Int("reps", 1, "replications (mean ± 95% CI when > 1)")
		workers    = flag.Int("workers", 0, "parallel workers (0 = GOMAXPROCS)")
		discover   = flag.Int("discover", 0, "run N discovery rounds (one probe every 4s; the measurement period becomes N × 4s) instead of a traffic experiment")
		mttf       = flag.Duration("mttf", 0, "node churn: mean time to failure (0 = no churn)")
		mttr       = flag.Duration("mttr", 0, "node churn: mean downtime per crash (default 10s when -mttf is set)")
		linkGood   = flag.Duration("link-good", 0, "link impairment: mean good-state dwell (0 = no impairment)")
		linkBad    = flag.Duration("link-bad", 0, "link impairment: mean bad-state dwell")
		lossGood   = flag.Float64("loss-good", 0, "link impairment: loss probability in the good state")
		lossBad    = flag.Float64("loss-bad", 0, "link impairment: loss probability in the bad state")
		traceFile  = flag.String("trace", "", "write route events (NDJSON: floods, discovery outcomes, replies, link failures) to this file; requires -journey")
		metricsOn  = flag.Bool("metrics", false, "record per-node load time-series; writes <metrics-out>-heatmap.csv and <metrics-out>-series.ndjson; forces reps=1")
		metricsInt = flag.Duration("metrics-interval", time.Duration(sim.DefaultSampleInterval), "sampling interval of simulated time for -metrics")
		metricsOut = flag.String("metrics-out", "metrics", "output path prefix for -metrics files")
		reportFile = flag.String("report", "", "write a machine-readable run report (JSON) to this file; forces reps=1")
		journeyN   = flag.Int("journey", 0, "trace packet journeys on 1-in-N flows (per-hop delay decomposition); forces reps=1 (0 = off)")
		journeyOut = flag.String("journey-out", "", "write sampled packet journeys (NDJSON) to this file; requires -journey")
		decisions  = flag.String("decisions", "", "write routing decision provenance (NDJSON) to this file; requires -journey")
		configFile = flag.String("config", "", "load scenario from a JSON file (flags override its fields)")
		dumpConfig = flag.String("dump-config", "", "write the effective scenario as JSON to this file and exit")
		auditOn    = flag.Bool("audit", false, "run under the runtime invariant auditor (fails on any invariant violation)")
		canonical  = flag.Bool("canonical-report", false, "zero the wall-clock fields of -report so the bytes are a pure function of the scenario (comparable against meshsimd-served reports)")
		version    = flag.Bool("version", false, "print build information and exit")
	)
	flag.Parse()

	if *version {
		buildinfo.Print("meshsim")
		return
	}

	stopProf, err := profFlags.Start()
	if err != nil {
		log.Fatal(err)
	}
	defer stopProf()

	sc := sim.DefaultScenario()
	if *configFile != "" {
		var err error
		sc, err = sim.LoadScenario(*configFile)
		if err != nil {
			log.Fatal(err)
		}
	}
	// Explicitly passed flags override the config file; untouched flags
	// leave the file's (or default scenario's) values alone.
	apply := map[string]func(){
		"scheme":  func() { sc.Scheme = sim.Scheme(*scheme) },
		"topo":    func() { sc.Topology = sim.Topology(*topology) },
		"rows":    func() { sc.Rows = *rows },
		"cols":    func() { sc.Cols = *cols },
		"nodes":   func() { sc.Nodes = *nodes },
		"area":    func() { sc.AreaM = *area },
		"flows":   func() { sc.Flows = *flows },
		"rate":    func() { sc.PacketRate = *rate },
		"payload": func() { sc.PayloadBytes = *payload },
		"poisson": func() { sc.Poisson = *poisson },
		"gateway": func() { sc.Gateway = *gateway },
		"seed":    func() { sc.Seed = *seed },
		"session": func() { sc.SessionTime = des.Time(*session) },
		"warmup":  func() { sc.Warmup = des.Time(*warmup) },
		"measure": func() { sc.Measure = des.Time(*measure) },

		"mttf":      func() { sc.Faults.MeanUpTime = des.Time(*mttf) },
		"mttr":      func() { sc.Faults.MeanDownTime = des.Time(*mttr) },
		"link-good": func() { sc.Faults.Link.MeanGood = des.Time(*linkGood) },
		"link-bad":  func() { sc.Faults.Link.MeanBad = des.Time(*linkBad) },
		"loss-good": func() { sc.Faults.Link.LossGood = *lossGood },
		"loss-bad":  func() { sc.Faults.Link.LossBad = *lossBad },
	}
	flag.Visit(func(f *flag.Flag) {
		if set, ok := apply[f.Name]; ok {
			set()
		}
	})
	sc.Audit = *auditOn
	if *discover > 0 {
		sc.Probes = true
		sc.Measure = des.Time(*discover) * sim.ProbeGap
	}

	// Fail fast with a one-line error on configuration mistakes (unknown
	// scheme or topology, negative durations, …) instead of surfacing
	// them mid-run.
	if *reps <= 0 {
		log.Fatalf("non-positive replication count %d", *reps)
	}
	if *journeyN < 0 {
		log.Fatalf("negative journey sampling divisor %d", *journeyN)
	}
	if (*journeyOut != "" || *decisions != "" || *traceFile != "") && *journeyN <= 0 {
		log.Fatal("-journey-out, -decisions and -trace require -journey N (the flow sampling divisor)")
	}
	if *metricsOn && *metricsInt <= 0 {
		log.Fatalf("-metrics needs a positive -metrics-interval, got %v", *metricsInt)
	}
	if err := sc.Validate(); err != nil {
		log.Fatal(err)
	}

	if *dumpConfig != "" {
		if err := sim.SaveScenario(*dumpConfig, sc); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote effective scenario to %s\n", *dumpConfig)
		return
	}

	collecting := *metricsOn || *reportFile != ""
	var rs []sim.Result
	if collecting || *journeyN > 0 {
		// Metrics and journeys both observe a single run (neither
		// changes its outcome); they compose freely.
		if *reps > 1 {
			log.Printf("observability flags force reps=1 (ignoring -reps %d)", *reps)
		}
		var obs sim.Observer
		r, err := obs.Run(sc, sim.ObserveOptions{
			Collect:      collecting,
			Interval:     des.Time(*metricsInt),
			JourneyEvery: *journeyN,
		})
		if err != nil {
			log.Fatal(err)
		}
		if *metricsOn {
			col := obs.Collector()
			heatmap := *metricsOut + "-heatmap.csv"
			series := *metricsOut + "-series.ndjson"
			if err := writeTo(heatmap, col.WriteHeatmapCSV); err != nil {
				log.Fatal(err)
			}
			if err := writeTo(series, col.WriteNDJSON); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("wrote %d samples × %d nodes to %s and %s\n",
				col.Ticks(), col.NumNodes(), heatmap, series)
		}
		if rec := obs.Recorder(); rec != nil {
			agg := obs.Journey()
			if *journeyOut != "" {
				if err := writeTo(*journeyOut, rec.WriteJourneysNDJSON); err != nil {
					log.Fatal(err)
				}
				fmt.Printf("wrote %d packet journeys to %s\n", agg.Sampled, *journeyOut)
			}
			if *decisions != "" {
				if err := writeTo(*decisions, rec.WriteDecisionsNDJSON); err != nil {
					log.Fatal(err)
				}
				fmt.Printf("wrote %d decision records to %s\n",
					agg.RREQDecisions+agg.Selections, *decisions)
			}
			if *traceFile != "" {
				if err := writeTo(*traceFile, rec.WriteRouteEventsNDJSON); err != nil {
					log.Fatal(err)
				}
				fmt.Printf("wrote %d route events to %s\n", len(rec.RouteEvents()), *traceFile)
			}
			jr := agg.Report()
			fmt.Printf("journey: sampled %d packets (1-in-%d flows), %d delivered; "+
				"mean delay %.3f ms = queue %.3f + access %.3f + retry %.3f + air %.3f + routing %.3f\n",
				jr.Sampled, jr.EveryN, jr.Delivered, jr.Delay.MeanMs,
				jr.Layers["queue"].MeanMs, jr.Layers["access"].MeanMs,
				jr.Layers["retry"].MeanMs, jr.Layers["air"].MeanMs,
				jr.Layers["routing"].MeanMs)
		}
		if *reportFile != "" {
			rep := obs.Report(sc, r)
			if *canonical {
				rep = rep.Canonical()
			}
			if err := writeTo(*reportFile, rep.WriteJSON); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("wrote run report to %s\n", *reportFile)
		}
		rs = []sim.Result{r}
		*reps = 1
	} else {
		rs = runCell(sc, *reps, *workers).Results
	}
	printSummary := func(name string, m sim.Metric) {
		s := sim.Summarize(rs, m)
		fmt.Printf("  %-22s %12.3f ± %.3f\n", name, s.Mean, s.CI95)
	}
	if *discover > 0 {
		fmt.Printf("discovery experiment: scheme=%s nodes=%d rounds=%d reps=%d\n",
			sc.Scheme, rs[0].Nodes, *discover, *reps)
		printSummary("RREQ per discovery", sim.MetricRREQPerProbe)
		printSummary("success rate", sim.MetricProbeSuccess)
		printSummary("latency (ms)", sim.MetricProbeLatencyMs)
		return
	}
	fmt.Printf("scheme=%s nodes=%d flows=%d rate=%g pkt/s payload=%dB reps=%d\n",
		sc.Scheme, rs[0].Nodes, sc.Flows, sc.PacketRate, sc.PayloadBytes, *reps)
	printSummary("PDR", sim.MetricPDR)
	printSummary("mean delay (ms)", sim.MetricDelayMs)
	printSummary("p95 delay (ms)", sim.MetricDelayP95Ms)
	printSummary("throughput (kb/s)", sim.MetricThroughput)
	printSummary("RREQ transmissions", sim.MetricRREQTx)
	printSummary("control/delivered", sim.MetricNormOverhead)
	printSummary("discovery success", sim.MetricDiscovery)
	printSummary("fwd load std", sim.MetricForwardStd)
	printSummary("fwd max/mean", sim.MetricForwardMax)
	if *reps == 1 {
		r := rs[0]
		fmt.Printf("  %-22s %d sent, %d delivered, %d queue drops, %d retry drops\n",
			"raw", r.Sent, r.Delivered, r.MACQueueDrops, r.MACRetryDrops)
	}
}

// runCell runs reps replications of sc through the experiments planner.
// The planner keeps each cell's Scenario.Audit, so the -audit flag rides
// in sc.
func runCell(sc sim.Scenario, reps, workers int) experiments.CellReport {
	cfg := experiments.Config{Reps: reps, Workers: workers, Seed: sc.Seed}
	cells, err := experiments.RunCells(cfg, []experiments.CellSpec{{Label: "meshsim", Scenario: sc}})
	if err != nil {
		log.Fatal(err)
	}
	return cells[0]
}
