package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"clnlr/internal/des"
	"clnlr/internal/sim"
)

// testScenario is a down-scaled configuration fast enough to simulate
// many times per test binary.
func testScenario(seed uint64) sim.Scenario {
	sc := sim.DefaultScenario()
	sc.Name = "serve-test"
	sc.Seed = seed
	sc.Rows, sc.Cols = 4, 4
	sc.AreaM = 4 * 1000.0 / 7
	sc.Flows = 3
	sc.PacketRate = 2
	sc.Warmup = des.Second
	sc.Measure = 4 * des.Second
	return sc
}

func scenarioJSON(t *testing.T, sc sim.Scenario) json.RawMessage {
	t.Helper()
	raw, err := json.Marshal(sc)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

func newTestServer(t testing.TB, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	return srv, ts
}

func post(t *testing.T, ts *httptest.Server, path string, body any) (*http.Response, []byte) {
	t.Helper()
	payload, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

// runCase is one /v1/run job: a scenario and the two run parameters that
// live outside it.
type runCase struct {
	name     string
	sc       sim.Scenario
	interval des.Time // 0: sim.DefaultSampleInterval
	journeyN int
}

func (c runCase) request(t *testing.T) RunRequest {
	return RunRequest{Scenario: scenarioJSON(t, c.sc), SampleInterval: c.interval, JourneyEveryN: c.journeyN}
}

// want reproduces the meshsim -report -canonical-report output for the job
// on a fresh Observer — the reference the daemon's pooled, warm one must
// match byte for byte.
func (c runCase) want(t *testing.T) []byte {
	t.Helper()
	interval := c.interval
	if interval == 0 {
		interval = sim.DefaultSampleInterval
	}
	var obs sim.Observer
	r, err := obs.Run(c.sc, sim.ObserveOptions{Collect: true, Interval: interval, JourneyEvery: c.journeyN})
	if err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	var buf bytes.Buffer
	if err := obs.Report(c.sc, r).Canonical().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func directRunBytes(t *testing.T, sc sim.Scenario, journeyN int) []byte {
	t.Helper()
	return runCase{sc: sc, journeyN: journeyN}.want(t)
}

// warmSequence is a run of distinct jobs for one pooled engine: the node
// count moves up and down between them, every scheme appears, and so do
// the gateway hotspot, churn with burst loss, waypoint mobility, Nakagami
// fading, log-distance shadowing, the auditor, a non-default sampling
// interval and journey tracing — everything a warm reset must put back.
func warmSequence() []runCase {
	grid := func(seed uint64, side int, scheme sim.Scheme) sim.Scenario {
		sc := testScenario(seed).WithScheme(scheme)
		sc.Rows, sc.Cols = side, side
		sc.AreaM = float64(side) * 1000.0 / 7
		return sc
	}
	churn := grid(105, 6, sim.SchemeCLNLR)
	churn.Faults.MeanUpTime = 2 * des.Second
	churn.Faults.MeanDownTime = des.Second
	churn.Faults.Link.MeanGood = des.Second
	churn.Faults.Link.MeanBad = 200 * des.Millisecond
	churn.Faults.Link.LossBad = 0.8
	audited := grid(102, 5, sim.SchemeGossip)
	audited.Audit = true
	hotspot := grid(103, 5, sim.SchemeCounter)
	hotspot.Gateway, hotspot.Flows, hotspot.PacketRate = true, 4, 8
	mobile := grid(104, 4, sim.SchemeCLNLR2)
	mobile.Topology, mobile.MobilitySpeed = sim.TopoPerturbedGrid, 10
	nakagami := grid(106, 5, sim.SchemeGossipAdaptive)
	nakagami.PropModel, nakagami.NakagamiM = sim.PropNakagami, 3
	logDistance := grid(107, 4, sim.SchemeCLNLR)
	logDistance.AreaM = 300
	logDistance.PropModel, logDistance.PathLossExp, logDistance.ShadowSigmaDB = sim.PropLogDistance, 3, 4
	everything := grid(110, 4, sim.SchemeFlood)
	everything.Audit = true
	everything.Faults = churn.Faults
	everything.MobilitySpeed = 5
	return []runCase{
		{name: "flood 4x4", sc: grid(101, 4, sim.SchemeFlood)},
		{name: "gossip 5x5 audited", sc: audited},
		{name: "counter 5x5 gateway", sc: hotspot},
		{name: "clnlr 6x6 churn and burst loss", sc: churn},
		{name: "clnlr-2hop 4x4 waypoint mobility", sc: mobile},
		{name: "gossip-adaptive 5x5 nakagami", sc: nakagami},
		{name: "clnlr 4x4 log-distance", sc: logDistance},
		{name: "clnlr 5x5 250 ms samples", sc: grid(108, 5, sim.SchemeCLNLR), interval: 250 * des.Millisecond},
		{name: "clnlr 3x3 journeys", sc: grid(109, 3, sim.SchemeCLNLR), journeyN: 1},
		{name: "flood 4x4 everything", sc: everything, interval: 50 * des.Millisecond, journeyN: 2},
	}
}

// wantAll is every case's fresh-engine bytes, computed before any request
// so that no direct run allocates between two served ones.
func wantAll(t *testing.T, cases []runCase) [][]byte {
	want := make([][]byte, len(cases))
	for i, c := range cases {
		want[i] = c.want(t)
	}
	return want
}

// serveSequence posts each case to ts in turn, calling before(i) ahead of
// case i, and requires a miss carrying the case's fresh-engine bytes.
func serveSequence(t *testing.T, ts *httptest.Server, cases []runCase, want [][]byte, before func(i int)) {
	t.Helper()
	for i, c := range cases {
		before(i)
		resp, got := post(t, ts, "/v1/run", c.request(t))
		if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Cache") != "miss" {
			t.Fatalf("%s: status %d, X-Cache %q: %s", c.name, resp.StatusCode, resp.Header.Get("X-Cache"), got)
		}
		if !bytes.Equal(got, want[i]) {
			t.Fatalf("%s: served report differs from the fresh-engine run (%d vs %d bytes)", c.name, len(got), len(want[i]))
		}
	}
}

// TestServedRunMatchesDirectBytes is the service's core guarantee: a
// served single-run report is byte-identical to running the same scenario
// through the engine directly, and a repeated submission is a cache hit
// carrying the same bytes without a second engine run.
func TestServedRunMatchesDirectBytes(t *testing.T) {
	sc := testScenario(11)
	want := directRunBytes(t, sc, 0)

	srv, ts := newTestServer(t, Config{})
	resp, got := post(t, ts, "/v1/run", RunRequest{Scenario: scenarioJSON(t, sc)})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, got)
	}
	if resp.Header.Get("X-Cache") != "miss" {
		t.Fatalf("first submission X-Cache = %q, want miss", resp.Header.Get("X-Cache"))
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("served report differs from direct run (%d vs %d bytes)", len(got), len(want))
	}

	resp2, got2 := post(t, ts, "/v1/run", RunRequest{Scenario: scenarioJSON(t, sc)})
	if resp2.Header.Get("X-Cache") != "hit" {
		t.Fatalf("second submission X-Cache = %q, want hit", resp2.Header.Get("X-Cache"))
	}
	if !bytes.Equal(got2, want) {
		t.Fatal("cache hit served different bytes")
	}
	st := srv.Stats()
	if st.EngineRuns != 1 || st.CacheHits != 1 || st.CacheMisses != 1 {
		t.Fatalf("stats = %+v, want 1 engine run, 1 hit, 1 miss", st)
	}

	// A warm daemon serves cold bytes: one worker answers a sequence of
	// distinct jobs, so the pooled engine that ran each miss serves the
	// next one, and every body is the fresh-engine body of its job.
	cases := warmSequence()
	wantSeq := wantAll(t, cases)
	warmSrv, warmTS := newTestServer(t, Config{Workers: 1})
	serveSequence(t, warmTS, cases, wantSeq, func(int) {})
	st = warmSrv.Stats()
	if st.EngineRuns != uint64(len(cases)) || st.EngineWarmRuns == 0 || st.EngineWarmRuns >= st.EngineRuns {
		t.Fatalf("stats = %+v, want %d engine runs, all but the first warm (the pool may lose one to a GC)", st, len(cases))
	}
}

// TestServedRunAfterPoolReclaim: two forced GC cycles between requests
// empty the engine pool, so each miss runs on a freshly built engine —
// none counts as warm — and serves the same bytes a warm one did.
func TestServedRunAfterPoolReclaim(t *testing.T) {
	cases := warmSequence()
	want := wantAll(t, cases)
	srv, ts := newTestServer(t, Config{Workers: 1})
	serveSequence(t, ts, cases, want, func(int) {
		runtime.GC()
		runtime.GC()
	})
	if st := srv.Stats(); st.EngineRuns != uint64(len(cases)) || st.EngineWarmRuns != 0 {
		t.Fatalf("stats = %+v, want %d engine runs and no warm one after forced GCs", st, len(cases))
	}
}

// TestServedRunConcurrentMisses: two workers answer distinct misses at
// once, each on its own pooled engine (make race runs this under the race
// detector), and every body is the fresh-engine body of its job.
func TestServedRunConcurrentMisses(t *testing.T) {
	cases := warmSequence()
	want := wantAll(t, cases)
	srv, ts := newTestServer(t, Config{Workers: 2})
	var wg sync.WaitGroup
	for client := 0; client < 2; client++ {
		wg.Add(1)
		go func(client int) {
			defer wg.Done()
			for i := client; i < len(cases); i += 2 {
				resp, got := post(t, ts, "/v1/run", cases[i].request(t))
				if resp.StatusCode != http.StatusOK || !bytes.Equal(got, want[i]) {
					t.Errorf("%s: status %d, served bytes equal the fresh-engine run: %v", cases[i].name, resp.StatusCode, bytes.Equal(got, want[i]))
				}
			}
		}(client)
	}
	wg.Wait()
	if st := srv.Stats(); st.EngineRuns != uint64(len(cases)) {
		t.Fatalf("stats = %+v, want %d engine runs", st, len(cases))
	}
}

// TestEngineWarmRunsCountsPooledEngines: /v1/stats counts a miss as warm
// only when a pooled engine ran it — never the first miss, and never the
// first after the server has idled through two GC cycles.
func TestEngineWarmRunsCountsPooledEngines(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	miss := func(seed uint64) Stats {
		t.Helper()
		resp, body := post(t, ts, "/v1/run", RunRequest{Scenario: scenarioJSON(t, testScenario(seed))})
		if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Cache") != "miss" {
			t.Fatalf("seed %d: status %d, X-Cache %q: %s", seed, resp.StatusCode, resp.Header.Get("X-Cache"), body)
		}
		var st Stats
		if _, body := get(t, ts, "/v1/stats"); json.Unmarshal(body, &st) != nil {
			t.Fatalf("/v1/stats answered %s", body)
		}
		return st
	}
	if st := miss(201); st.EngineRuns != 1 || st.EngineWarmRuns != 0 {
		t.Fatalf("first miss: %+v, want 1 engine run, none warm", st)
	}
	// The second miss normally runs on the first one's engine; the race
	// detector makes sync.Pool drop a quarter of its puts, so it is not
	// required to.
	warm := miss(202).EngineWarmRuns
	if warm > 1 {
		t.Fatalf("two misses left engine_warm_runs at %d", warm)
	}
	runtime.GC()
	runtime.GC()
	if st := miss(203); st.EngineRuns != 3 || st.EngineWarmRuns != warm {
		t.Fatalf("the miss after two GC cycles: %+v, want 3 engine runs, %d warm", st, warm)
	}
}

// TestJourneyDivisorChangesKey pins the cache-keying satellite: the
// journey divisor lives outside Scenario (so outside its fingerprint) and
// must still separate cache entries.
func TestJourneyDivisorChangesKey(t *testing.T) {
	sc := testScenario(12)
	raw := scenarioJSON(t, sc)
	_, ts := newTestServer(t, Config{})

	resp, body := post(t, ts, "/v1/run", RunRequest{Scenario: raw})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("plain run: %d %s", resp.StatusCode, body)
	}
	respJ, bodyJ := post(t, ts, "/v1/run", RunRequest{Scenario: raw, JourneyEveryN: 1})
	if respJ.StatusCode != http.StatusOK {
		t.Fatalf("journey run: %d %s", respJ.StatusCode, bodyJ)
	}
	if respJ.Header.Get("X-Cache") != "miss" {
		t.Fatal("journey-traced run was served from the plain run's cache slot")
	}
	if resp.Header.Get("X-Job-Key") == respJ.Header.Get("X-Job-Key") {
		t.Fatal("journey divisor did not change the job key")
	}
	if want := directRunBytes(t, sc, 1); !bytes.Equal(bodyJ, want) {
		t.Fatal("journey-traced served report differs from direct run")
	}
}

// TestModelVersionChangesKey pins sim.ModelVersion into the content
// address: both endpoints' keys are their key material at the current
// version, the material at any other version hashes to another key, and a
// disk-tier entry stored under that other key is not served.
func TestModelVersionChangesKey(t *testing.T) {
	sc := scenarioJSON(t, testScenario(14))
	body := mustMarshal(t, RunRequest{Scenario: sc})
	rj, err := decodeRun(body)
	if err != nil {
		t.Fatal(err)
	}
	sj, err := decodeSweep(mustMarshal(t, SweepRequest{Scenario: sc, Schemes: []string{"flood"}, Reps: 2}))
	if err != nil {
		t.Fatal(err)
	}
	run := keyMaterial{Kind: "run", ModelVersion: sim.ModelVersion, Fingerprint: rj.sc.Fingerprint(), SampleInterval: rj.opts.Interval}
	sweep := keyMaterial{Kind: "sweep", ModelVersion: sim.ModelVersion, Fingerprint: sj.base.Fingerprint(), Reps: 2, Schemes: []string{"flood"}, Name: sj.name}
	if run.hash() != rj.key() || sweep.hash() != sj.key() {
		t.Fatal("a job key is not its key material at sim.ModelVersion")
	}
	other := run
	other.ModelVersion++
	if other.hash() == rj.key() {
		t.Fatal("the run key did not move with the model version")
	}

	dir := t.TempDir()
	stale, err := NewCache(dir, 1<<20, 16)
	if err != nil {
		t.Fatal(err)
	}
	stale.Put(other.hash(), []byte("another model's result\n"))
	srv, _ := newTestServer(t, Config{CacheDir: dir})
	srv.runHook = keyEcho
	rw := serveRaw(srv.Handler(), "/v1/run", body)
	if rw.Code != http.StatusOK || rw.Header().Get("X-Cache") != "miss" || rw.Body.String() != rj.key()+"\n" {
		t.Fatalf("answered %d X-Cache %q %q, want a miss serving %s", rw.Code, rw.Header().Get("X-Cache"), rw.Body, rj.key())
	}
	if st := srv.Stats(); st.EngineRuns != 1 || st.CacheDiskHits != 0 {
		t.Fatalf("%d engine runs, %d disk hits, want 1 and 0", st.EngineRuns, st.CacheDiskHits)
	}
}

// TestScenarioIgnoresRetiredFields pins that a config written by an older
// build keeps loading through both overlay decoders, sim.LoadScenario and
// /v1/run: testdata/retired_fields.json is testScenario(13) as an overlay
// that also sets the switches since removed — the radio tiers'
// LegacyRadio and ReferenceRadio and the event list's ReferenceQueue
// (`meshsim -dump-config` used to emit all three). It must mean the scenario without the fields: same
// Result, same Fingerprint, same cache slot.
func TestScenarioIgnoresRetiredFields(t *testing.T) {
	const path = "testdata/retired_fields.json"
	sc := testScenario(13)

	loaded, err := sim.LoadScenario(path)
	if err != nil {
		t.Fatalf("LoadScenario on a config with a retired field: %v", err)
	}
	if got, want := loaded.Fingerprint(), sc.Fingerprint(); got != want {
		t.Fatalf("retired field moved the fingerprint: %s, want %s", got, want)
	}
	want, err := sim.NewEngine().Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := sim.NewEngine().Run(loaded); err != nil || got != want {
		t.Fatalf("loaded scenario ran to %+v (%v), want %+v", got, err, want)
	}

	retired, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{})
	resp, body := post(t, ts, "/v1/run", RunRequest{Scenario: retired})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/run with a retired field: %d %s", resp.StatusCode, body)
	}
	if !bytes.Equal(body, directRunBytes(t, sc, 0)) {
		t.Fatal("served report for the config with a retired field differs from the direct run without it")
	}
	if resp, _ := post(t, ts, "/v1/run", RunRequest{Scenario: scenarioJSON(t, sc)}); resp.Header.Get("X-Cache") != "hit" {
		t.Fatal("the config without the retired field missed the cache slot of the one with it")
	}
}

// TestHostileSchemeParamsAreBadRequests: scheme knobs that would panic
// the engine while it builds the agents — and with it the whole daemon —
// are rejected with 400 at intake, and the server goes on serving.
func TestHostileSchemeParamsAreBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, raw := range []string{
		`{"CLNLR":{"PMin":2}}`,
		`{"Scheme":"clnlr-2hop","CLNLR":{"DegRef":0}}`,
		`{"Scheme":"gossip-adaptive","Routing":{"HelloInterval":0}}`,
		`{"Scheme":"counter","Counter":{"RADMax":-1}}`,
		`{"Scheme":"counter","Counter":{"RADMax":9223372036854775807}}`,
	} {
		resp, body := post(t, ts, "/v1/run", RunRequest{Scenario: json.RawMessage(raw)})
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("scenario %s: status %d %s, want 400", raw, resp.StatusCode, body)
		}
		resp, body = post(t, ts, "/v1/sweep", SweepRequest{Scenario: json.RawMessage(raw), Reps: 1})
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("sweep of scenario %s: status %d %s, want 400", raw, resp.StatusCode, body)
		}
	}
	if resp, body := post(t, ts, "/v1/run", RunRequest{Scenario: scenarioJSON(t, testScenario(13))}); resp.StatusCode != http.StatusOK {
		t.Fatalf("valid request after the hostile ones: %d %s", resp.StatusCode, body)
	}
}

// TestConcurrentIdenticalSubmissionsRunOnce pins singleflight: N clients
// racing the same content cost one simulation and all read the same bytes.
func TestConcurrentIdenticalSubmissionsRunOnce(t *testing.T) {
	sc := testScenario(13)
	raw := scenarioJSON(t, sc)
	srv, ts := newTestServer(t, Config{Workers: 4})

	const n = 6
	bodies := make([][]byte, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, body := post(t, ts, "/v1/run", RunRequest{Scenario: raw})
			if resp.StatusCode != http.StatusOK {
				t.Errorf("request %d: status %d", i, resp.StatusCode)
				return
			}
			bodies[i] = body
		}(i)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Fatalf("request %d read different bytes", i)
		}
	}
	if runs := srv.Stats().EngineRuns; runs != 1 {
		t.Fatalf("%d concurrent identical submissions cost %d engine runs, want 1", n, runs)
	}
}

// TestQueueFullSheds429 pins admission control: with one worker occupied
// and the one queue slot taken, a third distinct submission is refused
// immediately with 429 and a positive Retry-After — never blocked.
func TestQueueFullSheds429(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
	gate := make(chan struct{})
	started := make(chan struct{}, 8)
	srv.runHook = func(*job) ([]byte, error) {
		started <- struct{}{}
		<-gate
		return []byte("{}\n"), nil
	}

	results := make(chan int, 2)
	submit := func(seed uint64) {
		resp, _ := post(t, ts, "/v1/run", RunRequest{Scenario: scenarioJSON(t, testScenario(seed))})
		results <- resp.StatusCode
	}
	go submit(1)
	<-started // job 1 occupies the worker
	go submit(2)
	for i := 0; srv.Stats().QueueLen != 1; i++ { // job 2 occupies the queue slot
		if i > 500 {
			t.Fatal("second job never reached the queue")
		}
		time.Sleep(2 * time.Millisecond)
	}

	resp, body := post(t, ts, "/v1/run", RunRequest{Scenario: scenarioJSON(t, testScenario(3))})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("full queue answered %d (%s), want 429", resp.StatusCode, body)
	}
	if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || secs < 1 {
		t.Fatalf("Retry-After = %q, want a positive integer", resp.Header.Get("Retry-After"))
	}
	if srv.Stats().Shed != 1 {
		t.Fatalf("shed counter = %d, want 1", srv.Stats().Shed)
	}

	close(gate)
	for i := 0; i < 2; i++ {
		if code := <-results; code != http.StatusOK {
			t.Fatalf("admitted job answered %d, want 200", code)
		}
	}
}

// TestShutdownDrains pins the graceful drain: after Shutdown begins, new
// submissions get 503, the in-flight job still completes and its waiter
// still gets its bytes, and Shutdown returns once everything is done.
func TestShutdownDrains(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 1})
	gate := make(chan struct{})
	started := make(chan struct{}, 1)
	srv.runHook = func(*job) ([]byte, error) {
		started <- struct{}{}
		<-gate
		return []byte(`{"drained":true}`), nil
	}

	type reply struct {
		code int
		body []byte
	}
	inflight := make(chan reply, 1)
	go func() {
		resp, body := post(t, ts, "/v1/run", RunRequest{Scenario: scenarioJSON(t, testScenario(21))})
		inflight <- reply{resp.StatusCode, body}
	}()
	<-started

	shutdownErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		shutdownErr <- srv.Shutdown(ctx)
	}()
	for i := 0; !srv.Stats().Draining; i++ {
		if i > 500 {
			t.Fatal("draining flag never set")
		}
		time.Sleep(2 * time.Millisecond)
	}

	resp, _ := post(t, ts, "/v1/run", RunRequest{Scenario: scenarioJSON(t, testScenario(22))})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining daemon answered %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 refusal carries no Retry-After")
	}

	close(gate)
	r := <-inflight
	if r.code != http.StatusOK || string(r.body) != `{"drained":true}` {
		t.Fatalf("in-flight job answered %d %q, want its bytes", r.code, r.body)
	}
	if err := <-shutdownErr; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if !srv.Stats().Draining {
		t.Fatal("stats do not report draining")
	}
}

func sweepBody(t *testing.T, seed uint64) SweepRequest {
	sc := testScenario(seed)
	sc.Measure = 3 * des.Second
	return SweepRequest{
		Name:     "cmp",
		Scenario: scenarioJSON(t, sc),
		Schemes:  []string{"flood", "clnlr"},
		Reps:     2,
	}
}

// TestServedSweepSurvivesRestart pins the disk tier: a sweep computed by
// one daemon is served byte-identically by a fresh daemon over the same
// cache directory without any engine run.
func TestServedSweepSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	req := sweepBody(t, 31)

	srv1, ts1 := newTestServer(t, Config{CacheDir: dir, JobWorkers: 1})
	resp, want := post(t, ts1, "/v1/sweep", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep: %d %s", resp.StatusCode, want)
	}
	var rep SweepReport
	if err := json.Unmarshal(want, &rep); err != nil {
		t.Fatalf("sweep response is not a SweepReport: %v", err)
	}
	if len(rep.Cells) != 2 || rep.Cells[0].Reps != 2 || len(rep.Cells[1].Results) != 2 {
		t.Fatalf("unexpected sweep shape: %+v", rep)
	}
	if srv1.Stats().EngineRuns != 1 {
		t.Fatalf("sweep cost %d jobs, want 1", srv1.Stats().EngineRuns)
	}

	srv2, ts2 := newTestServer(t, Config{CacheDir: dir, JobWorkers: 1})
	resp2, got := post(t, ts2, "/v1/sweep", req)
	if resp2.Header.Get("X-Cache") != "hit" {
		t.Fatalf("restarted daemon X-Cache = %q, want hit", resp2.Header.Get("X-Cache"))
	}
	if !bytes.Equal(got, want) {
		t.Fatal("restarted daemon served different bytes")
	}
	if srv2.Stats().EngineRuns != 0 {
		t.Fatal("restarted daemon re-ran a cached sweep")
	}
}

// TestSweepInterruptResumesBitIdentically pins the drain/resume loop: a
// sweep interrupted by shutdown after its first cell checkpoints that
// cell; resubmitting the same content to a fresh daemon over the same
// cache directory re-runs only the missing cell and produces bytes
// identical to a never-interrupted sweep.
func TestSweepInterruptResumesBitIdentically(t *testing.T) {
	req := sweepBody(t, 41)

	// Reference: the same sweep, uninterrupted, on its own directory.
	_, refTS := newTestServer(t, Config{CacheDir: t.TempDir(), JobWorkers: 1})
	refResp, want := post(t, refTS, "/v1/sweep", req)
	if refResp.StatusCode != http.StatusOK {
		t.Fatalf("reference sweep: %d %s", refResp.StatusCode, want)
	}

	dir := t.TempDir()
	srv1, ts1 := newTestServer(t, Config{CacheDir: dir, JobWorkers: 1})
	var runs atomic.Int32
	sim.TestHookRun = func(sim.Scenario) {
		// Begin draining while cell 1's second replication runs: the
		// planner finishes it, checkpoints the completed cell, and skips
		// cell 2 — the deterministic mid-sweep shutdown.
		if runs.Add(1) == 2 {
			srv1.draining.Store(true)
		}
	}
	defer func() { sim.TestHookRun = nil }()

	resp, body := post(t, ts1, "/v1/sweep", req)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("interrupted sweep answered %d (%s), want 503", resp.StatusCode, body)
	}
	if runs.Load() != 2 {
		t.Fatalf("interrupted sweep ran %d replications, want 2 (first cell only)", runs.Load())
	}

	// "Restart": a fresh daemon over the same directory, same submission.
	srv2, ts2 := newTestServer(t, Config{CacheDir: dir, JobWorkers: 1})
	resp2, got := post(t, ts2, "/v1/sweep", req)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("resumed sweep: %d %s", resp2.StatusCode, got)
	}
	if total := runs.Load(); total != 4 {
		t.Fatalf("interrupt+resume cost %d replications total, want 4 (2 checkpointed + 2 resumed)", total)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("resumed sweep bytes differ from an uninterrupted sweep")
	}
	if srv2.Stats().EngineRuns != 1 {
		t.Fatalf("resume cost %d jobs, want 1", srv2.Stats().EngineRuns)
	}
}

// TestServedProbeSweep: a sweep of the discovery-probe workload is an
// ordinary sweep, and its cells' results carry the probe fields.
func TestServedProbeSweep(t *testing.T) {
	sc := testScenario(73)
	sc.Flows = 0
	sc.Probes = true
	sc.Measure = 2 * sim.ProbeGap
	_, ts := newTestServer(t, Config{JobWorkers: 1})
	resp, body := post(t, ts, "/v1/sweep", SweepRequest{Name: "probes", Scenario: scenarioJSON(t, sc), Schemes: []string{"flood", "clnlr"}, Reps: 2})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("probe sweep: %d %s", resp.StatusCode, body)
	}
	var rep SweepReport
	if err := json.Unmarshal(body, &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Cells) != 2 {
		t.Fatalf("probe sweep served %d cells, want 2", len(rep.Cells))
	}
	for _, c := range rep.Cells {
		if len(c.Results) != 2 {
			t.Fatalf("cell %s carries %d results, want 2", c.Label, len(c.Results))
		}
		for _, r := range c.Results {
			if r.ProbesSent != 2 || r.ProbesDelivered == 0 || r.ProbeDelaySec <= 0 {
				t.Errorf("cell %s seed %d: probe fields %d sent, %d delivered, %v s", c.Label, r.Seed, r.ProbesSent, r.ProbesDelivered, r.ProbeDelaySec)
			}
		}
	}
}

// TestSweepNameChangesKeyAndBytes pins the cache key against the one
// request field outside scenario/params that is baked into the served
// bytes: two sweeps identical except for Name must occupy distinct cache
// slots and each serve its own name and cell labels.
func TestSweepNameChangesKeyAndBytes(t *testing.T) {
	sc := testScenario(71)
	sc.Measure = 2 * des.Second
	raw := scenarioJSON(t, sc)
	_, ts := newTestServer(t, Config{JobWorkers: 1})

	reqA := SweepRequest{Name: "alpha", Scenario: raw, Schemes: []string{"flood"}, Reps: 1}
	respA, bodyA := post(t, ts, "/v1/sweep", reqA)
	if respA.StatusCode != http.StatusOK {
		t.Fatalf("sweep alpha: %d %s", respA.StatusCode, bodyA)
	}

	reqB := reqA
	reqB.Name = "beta"
	respB, bodyB := post(t, ts, "/v1/sweep", reqB)
	if respB.StatusCode != http.StatusOK {
		t.Fatalf("sweep beta: %d %s", respB.StatusCode, bodyB)
	}
	if respB.Header.Get("X-Cache") != "miss" {
		t.Fatal("sweep differing only in name was served from the other name's cache slot")
	}
	if respA.Header.Get("X-Job-Key") == respB.Header.Get("X-Job-Key") {
		t.Fatal("sweep name did not change the job key")
	}
	for _, c := range []struct {
		name string
		body []byte
	}{{"alpha", bodyA}, {"beta", bodyB}} {
		var rep SweepReport
		if err := json.Unmarshal(c.body, &rep); err != nil {
			t.Fatal(err)
		}
		if rep.Name != c.name {
			t.Fatalf("served sweep name %q, want %q", rep.Name, c.name)
		}
		if len(rep.Cells) != 1 || rep.Cells[0].Label != c.name+" flood" {
			t.Fatalf("served cell labels %+v, want [%q]", rep.Cells, c.name+" flood")
		}
	}
}

// TestDuplicateSchemesDeduped pins scheme normalization: duplicates are
// dropped (no identical cell labels fighting over one checkpoint file)
// and a request with duplicates shares the deduplicated request's cache
// slot.
func TestDuplicateSchemesDeduped(t *testing.T) {
	raw := scenarioJSON(t, testScenario(72))
	dup, err := normalizeSweep(SweepRequest{Scenario: raw, Schemes: []string{"flood", "flood", "clnlr"}, Reps: 2})
	if err != nil {
		t.Fatal(err)
	}
	deduped, err := normalizeSweep(SweepRequest{Scenario: raw, Schemes: []string{"flood", "clnlr"}, Reps: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(dup.schemes) != 2 {
		t.Fatalf("duplicate schemes normalized to %v, want 2 distinct", dup.schemes)
	}
	if dup.key() != deduped.key() {
		t.Fatal("duplicate-scheme submission misses the deduplicated submission's cache slot")
	}
}

// TestFailedJobStatusRetained pins failure observability: an async
// submission whose execution fails must stay queryable at /v1/jobs/{key}
// with its error for the retention window (failures are never cached, so
// without retention the status would 404 the moment the job finished), a
// resubmission must re-run instead of joining the failed entry, and the
// entry must expire after the window.
func TestFailedJobStatusRetained(t *testing.T) {
	srv, ts := newTestServer(t, Config{FailedJobRetention: 200 * time.Millisecond})
	var fail atomic.Bool
	fail.Store(true)
	srv.runHook = func(*job) ([]byte, error) {
		if fail.Load() {
			return nil, fmt.Errorf("synthetic engine failure")
		}
		return []byte("{}\n"), nil
	}

	req := RunRequest{Scenario: scenarioJSON(t, testScenario(61))}
	resp, body := post(t, ts, "/v1/run?async=1", req)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("async submission answered %d (%s), want 202", resp.StatusCode, body)
	}
	var st JobStatus
	if err := json.Unmarshal(body, &st); err != nil || st.Key == "" {
		t.Fatalf("bad async status %q: %v", body, err)
	}

	var failed JobStatus
	for i := 0; ; i++ {
		gresp, gbody := get(t, ts, "/v1/jobs/"+st.Key)
		if gresp.StatusCode != http.StatusOK {
			t.Fatalf("status of failed job answered %d, want 200", gresp.StatusCode)
		}
		if err := json.Unmarshal(gbody, &failed); err != nil {
			t.Fatal(err)
		}
		if failed.State == "failed" {
			break
		}
		if i > 500 {
			t.Fatalf("job never reached failed state (last %+v)", failed)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if failed.Error != "synthetic engine failure" {
		t.Fatalf("retained status error %q, want the execution error", failed.Error)
	}

	// A resubmission replaces the failed entry with a fresh execution
	// instead of joining it and replaying the stale error.
	fail.Store(false)
	resp2, body2 := post(t, ts, "/v1/run", req)
	if resp2.StatusCode != http.StatusOK || string(body2) != "{}\n" {
		t.Fatalf("resubmission after failure answered %d %q, want fresh result", resp2.StatusCode, body2)
	}
	if runs := srv.Stats().EngineRuns; runs != 2 {
		t.Fatalf("resubmission after failure cost %d total runs, want 2", runs)
	}

	// A key that only ever failed expires from the table after the
	// retention window and becomes 404.
	fail.Store(true)
	resp3, body3 := post(t, ts, "/v1/run?async=1", RunRequest{Scenario: scenarioJSON(t, testScenario(62))})
	if resp3.StatusCode != http.StatusAccepted {
		t.Fatalf("second async submission answered %d (%s), want 202", resp3.StatusCode, body3)
	}
	var st3 JobStatus
	if err := json.Unmarshal(body3, &st3); err != nil {
		t.Fatal(err)
	}
	for i := 0; ; i++ {
		gresp, _ := get(t, ts, "/v1/jobs/"+st3.Key)
		if gresp.StatusCode == http.StatusNotFound {
			break
		}
		if i > 2000 {
			t.Fatal("failed job never expired from the status table")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestJobStatusAndStream covers the observation surface: async submission
// answers 202 with a job key, the status endpoint tracks it, the NDJSON
// stream ends with a terminal state, and a finished job reports done.
func TestJobStatusAndStream(t *testing.T) {
	sc := testScenario(51)
	_, ts := newTestServer(t, Config{StreamInterval: 10 * time.Millisecond})

	resp, body := post(t, ts, "/v1/sweep?async=1", SweepRequest{
		Scenario: scenarioJSON(t, sc),
		Reps:     1,
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("async submission answered %d (%s), want 202", resp.StatusCode, body)
	}
	var st JobStatus
	if err := json.Unmarshal(body, &st); err != nil || st.Key == "" {
		t.Fatalf("bad async status %q: %v", body, err)
	}

	sresp, err := http.Get(ts.URL + "/v1/jobs/" + st.Key + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	if ct := sresp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("stream content type %q", ct)
	}
	dec := json.NewDecoder(sresp.Body)
	var last JobStatus
	for dec.More() {
		if err := dec.Decode(&last); err != nil {
			t.Fatal(err)
		}
	}
	if last.State != "done" {
		t.Fatalf("stream ended in state %q, want done", last.State)
	}

	gresp, gbody := get(t, ts, "/v1/jobs/"+st.Key)
	if gresp.StatusCode != http.StatusOK {
		t.Fatalf("status after completion: %d", gresp.StatusCode)
	}
	var final JobStatus
	if err := json.Unmarshal(gbody, &final); err != nil {
		t.Fatal(err)
	}
	if final.State != "done" || !final.Cached {
		t.Fatalf("final status %+v, want cached done", final)
	}

	if resp, _ := get(t, ts, "/v1/jobs/"+fmt.Sprintf("%064d", 0)); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job answered %d, want 404", resp.StatusCode)
	}
}

func get(t *testing.T, ts *httptest.Server, path string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

// requestCase is one raw body for one endpoint and the status it must
// answer.
type requestCase struct {
	name, path string
	body       []byte
	status     int
}

// badRequestCases is the 4xx table: every way a submission is refused
// before it becomes a job, on each endpoint it applies to. The memo tests
// and the fuzzer's seed corpus reuse it.
func badRequestCases() []requestCase {
	oversize := append([]byte(`{"scenario":{}}`), bytes.Repeat([]byte(" "), maxBodyBytes)...)
	var cases []requestCase
	both := func(name string, status int, run, sweep string) {
		cases = append(cases,
			requestCase{name, "/v1/run", []byte(run), status},
			requestCase{name, "/v1/sweep", []byte(sweep), status})
	}
	both("oversize", http.StatusRequestEntityTooLarge, string(oversize), string(oversize))
	both("malformed JSON", http.StatusBadRequest, `not json`, `{"reps": 2`)
	both("unknown field", http.StatusBadRequest, `{"unknown_field": 1}`, `{"reps": 2, "sample_interval": 5}`)
	both("negative journey_every_n", http.StatusBadRequest, `{"journey_every_n": -1}`, `{"reps": 2, "journey_every_n": -1}`)
	both("invalid scenario", http.StatusBadRequest, `{"scenario": {"Rows": -3}}`, `{"reps": 2, "scenario": {"Rows": -3}}`)
	both("mistyped scenario field", http.StatusBadRequest, `{"scenario": {"Rows": "three"}}`, `{"reps": 2, "scenario": {"Rows": "three"}}`)
	// 4 s apart, probes tile the window, and each discovery must end
	// before the next probe leaves.
	both("probe window off the 4s grid", http.StatusBadRequest,
		`{"scenario": {"Probes": true, "Flows": 0, "Measure": 6000000000}}`,
		`{"reps": 2, "scenario": {"Probes": true, "Flows": 0, "Measure": 6000000000}}`)
	both("probe discovery outlasting 4s", http.StatusBadRequest,
		`{"scenario": {"Probes": true, "Measure": 8000000000, "Routing": {"RREQRetries": 3}}}`,
		`{"reps": 2, "scenario": {"Probes": true, "Measure": 8000000000, "Routing": {"RREQRetries": 3}}}`)
	return append(cases,
		requestCase{"negative sample_interval", "/v1/run", []byte(`{"sample_interval": -1}`), http.StatusBadRequest},
		requestCase{"reps zero", "/v1/sweep", []byte(`{"reps": 0}`), http.StatusBadRequest},
		requestCase{"reps absent", "/v1/sweep", []byte(`{}`), http.StatusBadRequest},
		requestCase{"reps negative", "/v1/sweep", []byte(`{"reps": -2}`), http.StatusBadRequest},
		requestCase{"unknown scheme", "/v1/sweep", []byte(`{"reps": 2, "schemes": ["ospf"]}`), http.StatusBadRequest},
	)
}

// serveRaw posts raw bytes to the handler in-process (no socket: a 4 MiB
// refusal cannot race the client's write).
func serveRaw(h http.Handler, path string, body []byte) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rw := httptest.NewRecorder()
	h.ServeHTTP(rw, req)
	return rw
}

// TestBadRequests covers request validation: a body over the cap is 413,
// malformed JSON, unknown fields, out-of-range run parameters and invalid
// scenarios are 400s — never executions, and never remembered: the second
// answer to the same bytes is the first one again and the memo stays
// empty.
func TestBadRequests(t *testing.T) {
	srv, _ := newTestServer(t, Config{})
	for _, c := range badRequestCases() {
		first := serveRaw(srv.Handler(), c.path, c.body)
		if first.Code != c.status {
			t.Errorf("POST %s %s answered %d (%s), want %d", c.path, c.name, first.Code, first.Body, c.status)
		}
		second := serveRaw(srv.Handler(), c.path, c.body)
		if second.Code != first.Code || !bytes.Equal(second.Body.Bytes(), first.Body.Bytes()) {
			t.Errorf("POST %s %s answered %d %q, then %d %q", c.path, c.name, first.Code, first.Body, second.Code, second.Body)
		}
		if n := srv.memo.len(); n != 0 {
			t.Fatalf("POST %s %s left %d entries in the memo, want none for a refused body", c.path, c.name, n)
		}
	}
	if st := srv.Stats(); st.EngineRuns != 0 || st.CacheMisses != 0 {
		t.Fatalf("bad requests reached admission: %+v", st)
	}
}

// TestServedSweepKeepsScenarioAudit: a sweep whose scenario sets Audit
// runs each cell as submitted, so every cell carries the fingerprint of
// its scheme's scenario, Audit included.
func TestServedSweepKeepsScenarioAudit(t *testing.T) {
	base := testScenario(79)
	base.Measure = 2 * des.Second
	base.Audit = true
	_, ts := newTestServer(t, Config{JobWorkers: 1})
	schemes := []string{"flood", "clnlr"}
	resp, body := post(t, ts, "/v1/sweep", SweepRequest{Scenario: scenarioJSON(t, base), Schemes: schemes, Reps: 1})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("audited sweep: %d %s", resp.StatusCode, body)
	}
	var rep SweepReport
	if err := json.Unmarshal(body, &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Cells) != len(schemes) {
		t.Fatalf("audited sweep served %d cells, want %d", len(rep.Cells), len(schemes))
	}
	for i, c := range rep.Cells {
		if want := base.WithScheme(sim.Scheme(schemes[i])).Fingerprint(); c.Fingerprint != want {
			t.Errorf("cell %s fingerprint %s, want %s", c.Label, c.Fingerprint, want)
		}
	}
}

// TestHostileRunIsRejectedAndContained: MAC settings the engine cannot
// run are a 400 before any job starts; a run that panics anyway is a
// failed job (500), not a dead daemon; and the next valid run is served
// with the bytes a fresh Observer gives.
func TestHostileRunIsRejectedAndContained(t *testing.T) {
	srv, ts := newTestServer(t, Config{JobWorkers: 1})
	for _, mac := range []string{
		`{"DataRateBps":0}`,
		`{"BasicRateBps":0}`,
		`{"CWMin":-1}`,
		`{"SlotTime":0,"SIFS":0}`,
		`{"LoadSampleInterval":0}`,
	} {
		resp, body := post(t, ts, "/v1/run", json.RawMessage(`{"scenario":{"Mac":`+mac+`}}`))
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("Mac %s answered %d (%s), want 400", mac, resp.StatusCode, body)
		}
	}
	if n := srv.Stats().EngineRuns; n != 0 {
		t.Fatalf("rejected requests ran %d jobs", n)
	}

	sim.TestHookRun = func(sim.Scenario) { panic("injected: poisoned run") }
	resp, body := post(t, ts, "/v1/run", runCase{sc: testScenario(5)}.request(t))
	sim.TestHookRun = nil
	if resp.StatusCode != http.StatusInternalServerError || !bytes.Contains(body, []byte("injected: poisoned run")) {
		t.Fatalf("panicking run answered %d (%s), want 500 naming the panic", resp.StatusCode, body)
	}
	if n := srv.Stats().JobsFailed; n != 1 {
		t.Fatalf("%d failed jobs after the panicking run, want 1", n)
	}

	after := runCase{name: "after the panic", sc: testScenario(6)}
	resp, got := post(t, ts, "/v1/run", after.request(t))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("valid run after the panic: %d %s", resp.StatusCode, got)
	}
	if !bytes.Equal(got, after.want(t)) {
		t.Fatal("the run after a panic differs from a fresh Observer's")
	}
}
