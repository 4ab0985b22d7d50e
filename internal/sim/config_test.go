package sim

import (
	"os"
	"path/filepath"
	"testing"
)

func TestScenarioJSONRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "sc.json")
	sc := DefaultScenario()
	sc.Scheme = SchemeGossip
	sc.PacketRate = 7.5
	sc.MobilitySpeed = 12
	sc.Routing.ExpandingRing = []int{1, 3}
	if err := SaveScenario(path, sc); err != nil {
		t.Fatal(err)
	}
	got, err := LoadScenario(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Scheme != SchemeGossip || got.PacketRate != 7.5 || got.MobilitySpeed != 12 {
		t.Fatalf("round trip lost fields: %+v", got)
	}
	if len(got.Routing.ExpandingRing) != 2 || got.Routing.ExpandingRing[1] != 3 {
		t.Fatalf("nested slice lost: %v", got.Routing.ExpandingRing)
	}
	// Untouched defaults must survive.
	if got.Rows != 7 || got.Mac.CWMin != 31 {
		t.Fatalf("defaults lost: rows=%d cwmin=%d", got.Rows, got.Mac.CWMin)
	}
}

func TestScenarioOverlaySemantics(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "partial.json")
	if err := os.WriteFile(path, []byte(`{"Scheme":"flood","Flows":3}`), 0o644); err != nil {
		t.Fatal(err)
	}
	sc, err := LoadScenario(path)
	if err != nil {
		t.Fatal(err)
	}
	if sc.Scheme != SchemeFlood || sc.Flows != 3 {
		t.Fatalf("overlay fields not applied: %+v", sc)
	}
	def := DefaultScenario()
	if sc.PacketRate != def.PacketRate || sc.AreaM != def.AreaM {
		t.Fatal("unspecified fields did not keep defaults")
	}
}

func TestLoadScenarioErrors(t *testing.T) {
	if _, err := LoadScenario("/nonexistent/sc.json"); err == nil {
		t.Fatal("missing file accepted")
	}
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.json")
	os.WriteFile(bad, []byte("{nope"), 0o644)
	if _, err := LoadScenario(bad); err == nil {
		t.Fatal("malformed JSON accepted")
	}
	invalid := filepath.Join(dir, "invalid.json")
	os.WriteFile(invalid, []byte(`{"Scheme":"ospf"}`), 0o644)
	if _, err := LoadScenario(invalid); err == nil {
		t.Fatal("invalid scenario accepted")
	}
}

func TestLoadedScenarioRuns(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.json")
	os.WriteFile(path, []byte(`{
		"Rows": 4, "Cols": 4, "AreaM": 600,
		"Flows": 3, "PacketRate": 4,
		"Warmup": 2000000000, "Measure": 8000000000
	}`), 0o644)
	sc, err := LoadScenario(path)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewEngine().Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if r.Nodes != 16 || r.Delivered == 0 {
		t.Fatalf("loaded scenario result %+v", r)
	}
}
