package sim_test

import (
	"testing"

	"clnlr/internal/sim"
)

// TestAuditChecksOnlyWhatChanged bounds the auditor's work. The default
// 7×7 run is static with immortal flows: every route is discovered within
// a few hundred milliseconds of the traffic start and afterwards only has
// its lifetime extended by the data it carries, and every audible set is
// built once, at its radio's first transmission. So an audit point in the
// middle of the measurement window follows a quiet interval and must check
// no routing table and no audible set, while the first and the last point
// check every table. A regression to checking everything at every point
// fails here, not only in the unguarded `make instrument-cost`.
func TestAuditChecksOnlyWhatChanged(t *testing.T) {
	sc := sim.DefaultScenario()
	n := sc.Rows * sc.Cols
	at, tables, sets, err := sim.AuditWork(t, sc)
	if err != nil {
		t.Fatal(err)
	}
	last := len(at) - 1
	if tables[0] != n || tables[last] != n || sets[last] != n {
		t.Errorf("first point checked %d tables, last %d tables and %d sets, want all %d", tables[0], tables[last], sets[last], n)
	}
	mid := sc.Warmup + sc.Measure/2
	k := 0
	for k < last && at[k] < mid {
		k++
	}
	if k == 0 || k == last {
		t.Fatalf("no mid-run audit point at or after %v", mid)
	}
	if tables[k] != 0 || sets[k] != 0 {
		t.Errorf("mid-run point at %v checked %d routing tables and %d audible sets, want 0 and 0", at[k], tables[k], sets[k])
	}
}
