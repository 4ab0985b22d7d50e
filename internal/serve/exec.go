package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"clnlr/internal/experiments"
	"clnlr/internal/journey"
	"clnlr/internal/metrics"
	"clnlr/internal/sim"
)

// runner is what a /v1/run miss executes on: an engine and the flight
// recorder whose series storage it keeps. Server.runners pools the ones
// that have run.
type runner struct {
	eng *sim.Engine
	col *metrics.Collector
}

// executeRun mirrors the meshsim -report -canonical-report path exactly —
// same collector, same journey fold, same Canonical() scrub, same
// WriteJSON serialisation — so a served single-run result is byte-identical
// to the CLI's output for the same scenario. The golden equivalence test
// pins this. It runs on a runner taken from the server's pool, warm when
// an earlier miss left one there (a warm engine's result is bit-identical
// to a cold one's), and gives the runner back once the report bytes are
// encoded; the garbage collector empties the pool while the daemon idles.
func (s *Server) executeRun(j runJob) ([]byte, error) {
	rn, warm := s.runners.Get().(*runner)
	if warm {
		s.engineWarmRuns.Add(1)
	} else {
		rn = &runner{eng: sim.NewEngine(), col: metrics.NewCollector(0)}
	}
	rn.col.SetSampleInterval(j.interval)
	data, err := encodeRun(j, rn)
	s.runners.Put(rn)
	return data, err
}

// encodeRun runs j on rn and returns the canonical report bytes.
func encodeRun(j runJob, rn *runner) ([]byte, error) {
	var rec *journey.Recorder
	if j.journeyN > 0 {
		rec = journey.NewRecorder(j.journeyN, true)
	}
	r, err := rn.eng.RunJourney(j.sc, nil, rn.col, rec)
	if err != nil {
		return nil, err
	}
	rep := sim.BuildReport(j.sc, r, rn.col)
	if rec != nil {
		agg := journey.NewAgg(rec.EveryN())
		rec.Aggregate(agg)
		rep.Journey = agg.Report()
	}
	rep = rep.Canonical()
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// SweepReport is the response body of /v1/sweep: one checkpointable cell
// per scheme, executed by the experiments planner.
type SweepReport struct {
	Name        string                   `json:"name"`
	Fingerprint string                   `json:"fingerprint"`
	Seed        uint64                   `json:"seed"`
	Reps        int                      `json:"reps"`
	Cells       []experiments.CellReport `json:"cells"`
}

// executeSweep runs a sweep job through experiments.RunCells with a
// per-key checkpoint directory, so a sweep interrupted by a graceful
// shutdown keeps its completed cells and a resubmission of the same
// content (same key, same directory) resumes bit-identically.
func (s *Server) executeSweep(j sweepJob, key string, prog *metrics.Progress) ([]byte, error) {
	dir := ""
	temp := false
	if s.cfg.CacheDir != "" {
		dir = filepath.Join(s.cfg.CacheDir, "jobs", key)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("serve: sweep job dir: %w", err)
		}
	} else {
		d, err := os.MkdirTemp("", "meshsimd-job-")
		if err != nil {
			return nil, fmt.Errorf("serve: sweep job dir: %w", err)
		}
		dir, temp = d, true
	}
	cfg := experiments.Config{
		Reps:          j.reps,
		Workers:       s.cfg.JobWorkers,
		Seed:          j.base.Seed,
		Progress:      prog,
		ReportDir:     dir,
		JourneyEveryN: j.journeyN,
		Resume:        true,
		Interrupted:   s.draining.Load,
	}
	cells, err := experiments.RunCells(cfg, j.cells())
	if err != nil {
		// Keep the checkpoint directory: an interrupted sweep resumes from
		// it when the same content is resubmitted.
		if temp {
			os.RemoveAll(dir)
		}
		return nil, err
	}
	rep := SweepReport{
		Name:        j.name,
		Fingerprint: j.base.Fingerprint(),
		Seed:        j.base.Seed,
		Reps:        j.reps,
		Cells:       cells,
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return nil, err
	}
	data = append(data, '\n')
	// The result is computed and about to be cached; the checkpoints have
	// served their purpose.
	os.RemoveAll(dir)
	return data, nil
}
