package experiments

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"clnlr/internal/atomicfile"
	"clnlr/internal/journey"
	"clnlr/internal/sim"
)

// CellReport is the machine-readable record of one sweep cell, written to
// Config.ReportDir as <sanitized label>.json. It bundles the cell's
// identity (label, scenario fingerprint, scheme, base seed), every
// replication's Result, and the per-layer counters summed over all
// replications.
//
// A cell report doubles as the cell's sweep checkpoint: it is written
// atomically (temp file + rename) only once every replication of the
// cell has succeeded, so a report that exists is always complete, and a
// resumed sweep (Config.Resume) can trust fingerprint-matched reports
// without re-running them.
type CellReport struct {
	Label       string `json:"label"`
	Fingerprint string `json:"fingerprint"`
	Scheme      string `json:"scheme"`
	Seed        uint64 `json:"seed"`
	Reps        int    `json:"reps"`

	// Retries counts replication re-attempts consumed healing crashed or
	// watchdog-killed runs of this cell (Config.Retries); 0 for a cell
	// that was clean on the first pass.
	Retries int `json:"retries,omitempty"`

	Counters map[string]uint64 `json:"counters,omitempty"`
	Results  []sim.Result      `json:"results,omitempty"`

	// Journey, when Config.JourneyEveryN armed packet-journey tracing, is
	// the per-layer delay decomposition and decision-provenance summary
	// merged over all replications of the cell.
	Journey *journey.Report `json:"journey,omitempty"`
}

// Manifest pins the sweep configuration a ReportDir's checkpoints were
// produced under, so a resume against a directory from a differently
// configured sweep, or from another model version, fails loudly instead of
// silently mixing results. Successive planner runs of one suite invocation
// merge their cells in.
type Manifest struct {
	// ModelVersion is sim.ModelVersion of the build that wrote the
	// checkpoints.
	ModelVersion int    `json:"model_version"`
	Reps         int    `json:"reps"`
	Seed         uint64 `json:"seed"`
	Quick        bool   `json:"quick"`
	// JourneyEveryN pins the journey-tracing divisor: checkpoints written
	// with a different divisor carry different (or no) journey sections,
	// so mixing them in one directory would be silently inconsistent.
	JourneyEveryN int            `json:"journey_every_n,omitempty"`
	Cells         []ManifestCell `json:"cells"`
}

// ManifestCell records one registered cell's checkpoint identity.
type ManifestCell struct {
	Label       string `json:"label"`
	File        string `json:"file"`
	Fingerprint string `json:"fingerprint"`
}

// manifestFile is the sweep manifest's name inside ReportDir.
const manifestFile = "manifest.json"

// cellFileName maps a cell label to a safe file name: every byte outside
// [A-Za-z0-9._-] becomes '_'.
func cellFileName(label string) string {
	safe := strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '.', r == '_', r == '-':
			return r
		}
		return '_'
	}, label)
	return safe + ".json"
}

// atomicWriteJSON writes v as indented JSON to path through
// atomicfile.Write, so readers (and resumed sweeps) never observe a torn
// file — a checkpoint either exists complete or not at all.
func atomicWriteJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return atomicfile.Write(path, append(data, '\n'))
}

// writeCellReport checkpoints one clean, complete cell into dir.
func writeCellReport(dir string, c *cell) error {
	return atomicWriteJSON(filepath.Join(dir, cellFileName(c.label)), buildCellReport(c))
}

// buildCellReport assembles the CellReport of one clean, complete cell —
// the same structure whether it is being checkpointed to disk or returned
// to a RunCells caller, so the two paths cannot drift.
func buildCellReport(c *cell) CellReport {
	rep := CellReport{
		Label:       c.label,
		Fingerprint: c.sc.Fingerprint(),
		Scheme:      string(c.sc.Scheme),
		Seed:        c.sc.Seed,
		Reps:        len(c.errs),
		Results:     c.results,
	}
	for _, n := range c.retries {
		rep.Retries += n
	}
	if c.counters != nil {
		sum := make(map[string]uint64)
		for _, m := range c.counters {
			for name, v := range m {
				sum[name] += v
			}
		}
		rep.Counters = sum
	}
	if c.journeys != nil && c.journeys[0] != nil {
		merged := journey.NewAgg(c.journeys[0].EveryN)
		for _, a := range c.journeys {
			merged.Merge(a)
		}
		rep.Journey = merged.Report()
	}
	return rep
}

// loadCellReport loads c's checkpoint from dir if it exists, is complete
// (all reps present) and matches the cell's identity — fingerprint, base
// seed and replication count. On a match the stored replications are
// installed into the cell, the parsed report (counters and journey
// sections included) is kept as c.checkpoint, and true is returned; any
// mismatch or read
// error means "run it again" (false), never a hard failure, because a
// stale checkpoint is indistinguishable from an absent one.
func loadCellReport(dir string, c *cell, reps int) bool {
	data, err := os.ReadFile(filepath.Join(dir, cellFileName(c.label)))
	if err != nil {
		return false
	}
	var rep CellReport
	if json.Unmarshal(data, &rep) != nil {
		return false
	}
	if rep.Label != c.label || rep.Fingerprint != c.sc.Fingerprint() ||
		rep.Seed != c.sc.Seed || rep.Reps != reps {
		return false
	}
	if len(rep.Results) != reps {
		return false
	}
	c.results = rep.Results
	c.checkpoint = &rep
	return true
}

// syncManifest merges this planner run's cells into dir's manifest. An
// existing manifest with a different model version or (reps, seed, quick,
// journey) configuration is a resume error — checkpoints under it would
// not reproduce this sweep — unless resume is off, in which case the stale
// manifest is replaced (the directory is being overwritten by a fresh
// sweep).
func (p *planner) syncManifest() error {
	dir := p.cfg.ReportDir
	path := filepath.Join(dir, manifestFile)
	m := Manifest{ModelVersion: sim.ModelVersion, Reps: p.cfg.Reps, Seed: p.cfg.Seed, Quick: p.cfg.Quick,
		JourneyEveryN: p.cfg.JourneyEveryN}
	if data, err := os.ReadFile(path); err == nil {
		var prev Manifest
		if err := json.Unmarshal(data, &prev); err != nil {
			if p.cfg.Resume {
				return fmt.Errorf("experiments: corrupt sweep manifest %s: %v", path, err)
			}
		} else if prev.ModelVersion != m.ModelVersion || prev.Reps != m.Reps || prev.Seed != m.Seed ||
			prev.Quick != m.Quick || prev.JourneyEveryN != m.JourneyEveryN {
			if p.cfg.Resume {
				return fmt.Errorf(
					"experiments: %s was written by a sweep with model=%d reps=%d seed=%d quick=%v journey=%d; "+
						"this run has model=%d reps=%d seed=%d quick=%v journey=%d — cannot resume",
					path, prev.ModelVersion, prev.Reps, prev.Seed, prev.Quick, prev.JourneyEveryN,
					m.ModelVersion, m.Reps, m.Seed, m.Quick, m.JourneyEveryN)
			}
		} else {
			m.Cells = prev.Cells
		}
	}
	known := make(map[string]int, len(m.Cells))
	for i, mc := range m.Cells {
		known[mc.Label] = i
	}
	for _, c := range p.cells {
		mc := ManifestCell{Label: c.label, File: cellFileName(c.label), Fingerprint: c.sc.Fingerprint()}
		if i, ok := known[c.label]; ok {
			m.Cells[i] = mc
		} else {
			known[c.label] = len(m.Cells)
			m.Cells = append(m.Cells, mc)
		}
	}
	return atomicWriteJSON(path, m)
}
