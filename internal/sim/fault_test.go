package sim

import (
	"testing"

	"clnlr/internal/des"
	"clnlr/internal/fault"
)

// churnScenario is quickScenario under heavy node churn: every node
// crashes roughly every 6 s (held down 2 s), so ~25% of the fleet is dark
// at any instant of the 18 s horizon.
func churnScenario() Scenario {
	sc := quickScenario()
	sc.Faults.MeanUpTime = 6 * des.Second
	sc.Faults.MeanDownTime = 2 * des.Second
	return sc
}

func TestNodeChurnDegradesDelivery(t *testing.T) {
	clean, err := NewEngine().Run(quickScenario())
	if err != nil {
		t.Fatal(err)
	}
	churned, err := NewEngine().Run(churnScenario())
	if err != nil {
		t.Fatal(err)
	}
	if churned.Sent == 0 || churned.Delivered == 0 {
		t.Fatalf("churned run moved no traffic: %+v", churned)
	}
	if churned.PDR >= clean.PDR {
		t.Fatalf("node churn did not hurt delivery: %.3f vs clean %.3f", churned.PDR, clean.PDR)
	}
}

func TestNodeChurnDeterministic(t *testing.T) {
	sc := churnScenario()
	a, err := NewEngine().Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewEngine().Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("churned runs with the same seed diverged:\n%+v\n%+v", a, b)
	}
}

func TestExplicitCrashSchedule(t *testing.T) {
	// Pin one relay-heavy node (the 5×5 grid centre, node 12) down for the
	// whole measurement window via the explicit schedule; no random churn.
	sc := quickScenario()
	sc.Faults.Schedule = []fault.NodeEvent{
		{Node: 12, At: sc.Warmup, Up: false},
	}
	r, err := NewEngine().Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	clean, err := NewEngine().Run(quickScenario())
	if err != nil {
		t.Fatal(err)
	}
	if r.Sent == 0 {
		t.Fatal("no packets sent")
	}
	// Killing the centre relay must cost control traffic (RERRs plus
	// re-discoveries around the hole) relative to the clean run.
	if r.ControlTx <= clean.ControlTx {
		t.Fatalf("dead centre relay produced no extra control traffic: %d vs clean %d",
			r.ControlTx, clean.ControlTx)
	}
}

func TestLinkImpairmentCostsDelivery(t *testing.T) {
	clean, err := NewEngine().Run(quickScenario())
	if err != nil {
		t.Fatal(err)
	}
	sc := quickScenario()
	sc.Faults.Link = fault.LinkParams{
		MeanGood: 2 * des.Second,
		MeanBad:  500 * des.Millisecond,
		LossBad:  0.8,
		LossGood: 0.02,
	}
	impaired, err := NewEngine().Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if impaired.Delivered == 0 {
		t.Fatal("impaired run delivered nothing")
	}
	if impaired.PDR > clean.PDR+0.01 {
		t.Fatalf("burst loss improved PDR: %.3f vs clean %.3f", impaired.PDR, clean.PDR)
	}
	// Per-link loss surfaces as MAC retries (and retry drops) for the same
	// workload.
	if impaired.MACRetryDrops+impaired.MACQueueDrops <= clean.MACRetryDrops+clean.MACQueueDrops &&
		impaired.PDR >= clean.PDR {
		t.Fatalf("impairment left no observable footprint: %+v vs %+v", impaired, clean)
	}
}

// TestCrashAlreadyCrashedNode pins the idempotence edge: crashing a node
// that is already down (and recovering one that is already up) must be a
// no-op at the stack level — the run completes, stays deterministic, and
// passes the invariant auditor.
func TestCrashAlreadyCrashedNode(t *testing.T) {
	sc := quickScenario()
	sc.Audit = true
	sc.Faults.Schedule = []fault.NodeEvent{
		{Node: 7, At: 2 * des.Second, Up: false},
		{Node: 7, At: 3 * des.Second, Up: false}, // double crash
		{Node: 7, At: 5 * des.Second, Up: true},
		{Node: 7, At: 6 * des.Second, Up: true}, // double recover
	}
	a, err := NewEngine().Run(sc)
	if err != nil {
		t.Fatalf("double crash/recover broke the run: %v", err)
	}
	b, err := NewEngine().Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("double crash/recover run not deterministic:\n%+v\n%+v", a, b)
	}
	if a.Delivered == 0 {
		t.Fatal("run moved no traffic")
	}
}

// TestLinkImpairmentAcrossCrashRecover pins the composition edge: a node
// crashing and recovering while its links sit in the Gilbert–Elliott bad
// state. The impairment chain advances on wall simulated time, so the
// crash must neither stall the chain nor desynchronise it — the run
// completes audit-clean and bit-identically.
func TestLinkImpairmentAcrossCrashRecover(t *testing.T) {
	sc := quickScenario()
	sc.Audit = true
	sc.Faults.Link = fault.LinkParams{
		MeanGood: 500 * des.Millisecond,
		MeanBad:  500 * des.Millisecond,
		LossBad:  0.9,
		LossGood: 0.05,
	}
	// Centre relay down for a 3 s slice of the measurement window: with
	// 500 ms dwell times its links flip state several times while dark.
	sc.Faults.Schedule = []fault.NodeEvent{
		{Node: 12, At: sc.Warmup + des.Second, Up: false},
		{Node: 12, At: sc.Warmup + 4*des.Second, Up: true},
	}
	a, err := NewEngine().Run(sc)
	if err != nil {
		t.Fatalf("impairment across crash/recover broke the run: %v", err)
	}
	b, err := NewEngine().Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("impaired crash/recover run not deterministic:\n%+v\n%+v", a, b)
	}
	if a.Delivered == 0 {
		t.Fatal("run delivered nothing")
	}
}
