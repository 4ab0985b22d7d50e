// experiments regenerates the reconstructed evaluation suite (DESIGN.md
// §4): every figure and table, printed as aligned text and optionally
// written as CSV files for plotting.
//
// Example:
//
//	experiments -quick                  # fast smoke pass (small sweeps)
//	experiments -fig F-R3 -reps 10      # one figure at full fidelity
//	experiments -out results/           # full suite + CSVs
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"path/filepath"
	"slices"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"clnlr/internal/buildinfo"
	"clnlr/internal/experiments"
	"clnlr/internal/metrics"
	"clnlr/internal/prof"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("experiments: ")

	profFlags := prof.RegisterFlags(nil)
	var (
		quick    = flag.Bool("quick", false, "small sweeps and few replications (smoke run)")
		reps     = flag.Int("reps", 0, "replications per point (default 10, quick 3)")
		seed     = flag.Uint64("seed", 1, "base random seed")
		workers  = flag.Int("workers", 0, "parallel workers (0 = GOMAXPROCS)")
		out      = flag.String("out", "", "directory to write per-figure CSV files")
		charts   = flag.Bool("plot", false, "render ASCII charts in addition to tables")
		figSel   = flag.String("fig", "", "comma-separated figure IDs to run (default all), e.g. F-R1,F-R3")
		status   = flag.String("status", "", "serve live sweep progress (expvar \"sweep\" at /debug/vars) and pprof on this address, e.g. localhost:6060")
		progress = flag.Duration("progress", 0, "log a one-line progress summary at this wall-clock interval (0 = off)")
		reports  = flag.String("reports", "", "directory to write per-cell run reports (JSON, with per-layer counters)")
		journeyN = flag.Int("journey", 0, "trace packet journeys on 1-in-N flows and fold the delay decomposition into -reports cells (0 = off)")
		resume   = flag.Bool("resume", false, "skip cells already checkpointed in the -reports directory (bit-identical to a fresh run)")
		auditOn  = flag.Bool("audit", false, "run every replication under the runtime invariant auditor")
		stall    = flag.Duration("stall-budget", 0, "kill a replication whose simulated clock makes no progress for this wall-clock time (0 = off)")
		retries  = flag.Int("retries", 0, "re-attempt a crashed or stalled replication up to this many times on a fresh engine")
		backoff  = flag.Duration("retry-backoff", 0, "wait between replication retry attempts")
		version  = flag.Bool("version", false, "print build information and exit")
	)
	flag.Parse()

	if *version {
		buildinfo.Print("experiments")
		return
	}

	if *reps < 0 {
		log.Fatalf("negative replication count %d", *reps)
	}
	if *retries < 0 {
		log.Fatalf("negative retry count %d", *retries)
	}
	if *stall < 0 || *backoff < 0 {
		log.Fatal("negative duration for -stall-budget or -retry-backoff")
	}
	if *resume && *reports == "" {
		log.Fatal("-resume requires -reports (the checkpoint directory to resume from)")
	}
	if *journeyN < 0 {
		log.Fatalf("negative journey sampling divisor %d", *journeyN)
	}
	if *journeyN > 0 && *reports == "" {
		log.Fatal("-journey requires -reports (journey summaries are folded into per-cell reports)")
	}

	stopProf, err := profFlags.Start()
	if err != nil {
		log.Fatal(err)
	}
	defer stopProf()

	cfg := experiments.DefaultConfig()
	if *quick {
		cfg = experiments.QuickConfig()
	}
	if *reps > 0 {
		cfg.Reps = *reps
	}
	cfg.Seed = *seed
	cfg.Workers = *workers
	cfg.Resume = *resume
	cfg.Audit = *auditOn
	cfg.StallBudget = *stall
	cfg.Retries = *retries
	cfg.RetryBackoff = *backoff
	cfg.JourneyEveryN = *journeyN

	// Graceful interrupt: the first SIGINT/SIGTERM drains in-flight
	// replications and checkpoints completed cells; a second one exits
	// immediately.
	var interrupted atomic.Bool
	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigc
		interrupted.Store(true)
		log.Print("interrupt: draining in-flight replications; interrupt again to exit immediately")
		<-sigc
		os.Exit(130)
	}()
	cfg.Interrupted = interrupted.Load

	prog := metrics.NewProgress()
	cfg.Progress = prog
	if *status != "" {
		prog.Publish("sweep")
		url, stopStatus, err := prof.Serve(*status)
		if err != nil {
			log.Fatal(err)
		}
		defer stopStatus()
		log.Printf("sweep progress at %s/debug/vars (pprof at %s/debug/pprof/)", url, url)
	}
	if *progress > 0 {
		ticker := time.NewTicker(*progress)
		defer ticker.Stop()
		go func() {
			for range ticker.C {
				log.Print(prog)
			}
		}()
	}
	if *reports != "" {
		if err := os.MkdirAll(*reports, 0o755); err != nil {
			log.Fatal(err)
		}
		cfg.ReportDir = *reports
	}

	var ids []string
	for _, id := range strings.Split(*figSel, ",") {
		if id = strings.TrimSpace(id); id != "" {
			ids = append(ids, strings.ToUpper(id))
		}
	}

	start := time.Now()
	figs, err := experiments.Run(cfg, ids...)
	// A crashed or failed replication poisons only its own cells; render
	// whatever survived and report the holes at the end.
	failedCells := 0
	var pe *experiments.PartialError
	if errors.As(err, &pe) {
		failedCells = len(pe.Failures)
		log.Print(pe)
	}
	stopped := errors.Is(err, experiments.ErrInterrupted)
	if err != nil && pe == nil && !stopped {
		log.Fatal(err)
	}
	if stopped {
		// An interrupted sweep renders only the figures it got to.
		figs = slices.DeleteFunc(figs, func(f experiments.Figure) bool { return len(f.Points) == 0 })
	}

	fmt.Print(experiments.TabR1())
	for _, f := range figs {
		fmt.Println()
		fmt.Print(f.Table())
		if *charts {
			fmt.Println()
			fmt.Print(f.Charts())
		}
	}
	fmt.Printf("\nsuite completed in %v (%d figures, %d reps/point)\n",
		time.Since(start).Round(time.Millisecond), len(figs), cfg.Reps)
	if failedCells > 0 {
		log.Printf("WARNING: %d replication(s) failed; affected cells are missing above", failedCells)
	}

	if *out != "" {
		if err := os.MkdirAll(*out, 0o755); err != nil {
			log.Fatal(err)
		}
		for _, f := range figs {
			name := strings.ToLower(strings.ReplaceAll(f.ID, "-", "_")) + ".csv"
			path := filepath.Join(*out, name)
			if err := os.WriteFile(path, []byte(f.CSV()), 0o644); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("wrote %s\n", path)
		}
	}
	if stopped {
		if *reports != "" {
			log.Printf("sweep interrupted; completed cells are checkpointed — rerun with -resume -reports %s to continue", *reports)
		} else {
			log.Print("sweep interrupted; rerun with -reports DIR (and later -resume) to make interruption cheap")
		}
		os.Exit(1)
	}
	if failedCells > 0 {
		os.Exit(1)
	}
}
