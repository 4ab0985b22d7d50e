package sim

// Test scenarios for the external sim_test package, whose replication
// tests drive the engine through experiments.RunCells (which imports sim,
// so they cannot live in package sim itself).
var (
	QuickScenario = quickScenario
	ChurnScenario = churnScenario
)
