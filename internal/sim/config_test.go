package sim

import (
	"os"
	"path/filepath"
	"testing"

	"clnlr/internal/mac"
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

// TestRateLadderTakesExactlyFourRates: a config's MAC rate ladder is
// 802.11b's four rates or an error — never a shorter ladder padded with
// zero rates, nor a longer one cut to four — whether or not AutoRate reads
// it. Four rates load to the scenario built in Go, fingerprint included,
// and null keeps the default.
func TestRateLadderTakesExactlyFourRates(t *testing.T) {
	dir := t.TempDir()
	load := func(overlay string) (Scenario, error) {
		t.Helper()
		path := filepath.Join(dir, "ladder.json")
		if err := os.WriteFile(path, []byte(overlay), 0o644); err != nil {
			t.Fatal(err)
		}
		return LoadScenario(path)
	}
	for _, ladder := range []string{
		`[1000000, 2000000, 5500000]`,
		`[1000000, 2000000, 5500000, 11000000, 54000000]`,
	} {
		for _, auto := range []string{"true", "false"} {
			overlay := `{"Mac": {"AutoRate": ` + auto + `, "RateLadder": ` + ladder + `}}`
			if _, err := load(overlay); err == nil {
				t.Errorf("LoadScenario accepted %s", overlay)
			}
		}
	}

	sc, err := load(`{"Mac": {"AutoRate": true, "RateLadder": [1000000, 2000000, 5500000, 6000000]}}`)
	if err != nil {
		t.Fatal(err)
	}
	want := DefaultScenario()
	want.Mac.AutoRate = true
	want.Mac.RateLadder = mac.RateLadder{1_000_000, 2_000_000, 5_500_000, 6_000_000}
	if sc.Mac.RateLadder != want.Mac.RateLadder || sc.Fingerprint() != want.Fingerprint() {
		t.Fatalf("four rates loaded as %v (fingerprint %s), want %v (%s)",
			sc.Mac.RateLadder, sc.Fingerprint(), want.Mac.RateLadder, want.Fingerprint())
	}

	sc, err = load(`{"Mac": {"RateLadder": null}}`)
	if err != nil {
		t.Fatal(err)
	}
	if sc.Mac.RateLadder != mac.DefaultConfig().RateLadder || sc.Fingerprint() != DefaultScenario().Fingerprint() {
		t.Fatalf("a null ladder loaded as %v, want the default", sc.Mac.RateLadder)
	}
}
