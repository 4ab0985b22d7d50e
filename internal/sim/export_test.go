package sim

import (
	"testing"

	"clnlr/internal/des"
)

// Test scenarios for the external sim_test package, whose replication
// tests drive the engine through experiments.RunCells (which imports sim,
// so they cannot live in package sim itself).
var (
	QuickScenario = quickScenario
	ChurnScenario = churnScenario
)

// AuditWork runs sc audited on a fresh engine, beside the full-walk
// reference auditor, and returns for every audit point of the run how
// many routing tables and audible sets it checked.
func AuditWork(t *testing.T, sc Scenario) (at []des.Time, tables, sets []int, err error) {
	_, points, err := runAudited(t, NewEngine(), sc, nil)
	for _, p := range points {
		at, tables, sets = append(at, p.t), append(tables, p.tables), append(sets, p.sets)
	}
	return at, tables, sets, err
}

// referenceEngine returns an engine whose medium scans every receiver on
// every transmission (radio.Medium.SetReference) instead of using the
// memoised audible sets — the reference path the golden tests hold the
// default to.
func referenceEngine() *Engine { return &Engine{referenceRadio: true} }
