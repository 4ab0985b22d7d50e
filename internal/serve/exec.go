package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"

	"clnlr/internal/experiments"
	"clnlr/internal/metrics"
	"clnlr/internal/sim"
)

// executeRun runs j through sim.Observer, the one observed-run path
// meshsim -report also takes, and returns the canonical report bytes
// (Canonical() scrub, WriteJSON serialisation): a served single-run
// result is byte-identical to meshsim -report -canonical-report's file
// for the same scenario and options. It runs on an Observer taken from
// the server's pool, warm when an earlier miss left one there (a warm
// engine's result is bit-identical to a cold one's), and gives it back
// once the bytes are encoded; the garbage collector empties the pool
// while the daemon idles. A panicking run is a failed job carrying an
// *experiments.PanicError, as a sweep's replication is, not a dead
// daemon; the Observer has dropped the panicked engine, so it goes back
// to the pool like any other.
func (s *Server) executeRun(j runJob) (body []byte, err error) {
	obs, warm := s.runners.Get().(*sim.Observer)
	if warm {
		s.engineWarmRuns.Add(1)
	} else {
		obs = new(sim.Observer)
	}
	defer func() {
		if v := recover(); v != nil {
			body, err = nil, &experiments.PanicError{Value: v, Stack: debug.Stack()}
		}
		s.runners.Put(obs)
	}()
	r, err := obs.Run(j.sc, j.opts)
	var buf bytes.Buffer
	if err == nil {
		err = obs.Report(j.sc, r).Canonical().WriteJSON(&buf)
	}
	if err != nil {
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
