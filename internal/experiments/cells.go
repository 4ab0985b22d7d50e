package experiments

import (
	"errors"

	"clnlr/internal/sim"
)

// CellSpec names one ad-hoc sweep cell for RunCells: a label (the cell's
// checkpoint identity inside Config.ReportDir) and the scenario it runs.
// Replication r uses Scenario.Seed+r, exactly the figure builders' seed
// schedule.
type CellSpec struct {
	Label    string
	Scenario sim.Scenario
}

// RunCells is the service-facing job execution entry point: it runs an
// arbitrary set of cells — rather than a predefined figure's — through the
// same planner the evaluation suite uses, and returns one CellReport per
// spec in spec order. Everything the planner provides rides along:
// bounded worker pool with warm engines, per-cell counters and journey
// aggregation (Config.ReportDir / Config.JourneyEveryN), checkpoint +
// resume (Config.Resume), graceful interrupt (Config.Interrupted →
// ErrInterrupted with completed cells checkpointed), watchdog and bounded
// retries.
//
// Determinism: a cell's replications are pure functions of
// (scenario, seed), so a RunCells result is bit-identical to running the
// same scenarios through sim directly, and a resumed run is bit-identical
// to an uninterrupted one — the property meshsimd's result cache is built
// on. Cells loaded from checkpoints return the checkpointed report bytes'
// structure (counters and journey sections included), keeping resumed and
// fresh sweeps indistinguishable to the caller.
//
// On error the returned slice still holds the reports of every cell that
// completed; failed or never-run cells are zero-valued.
func RunCells(cfg Config, specs []CellSpec) ([]CellReport, error) {
	if len(specs) == 0 {
		return nil, errors.New("experiments: no cells to run")
	}
	p := newPlanner(cfg)
	out := make([]CellReport, len(specs))
	for i, spec := range specs {
		i := i
		finalize := func(c *cell) {
			// A loaded cell's checkpoint carries the counters and journey
			// sections the run would have produced, so a resumed cell's
			// report is identical to a fresh one.
			if c.checkpoint != nil {
				out[i] = *c.checkpoint
				return
			}
			out[i] = buildCellReport(c)
		}
		p.add(spec.Label, spec.Scenario, finalize)
	}
	err := p.run()
	return out, err
}
