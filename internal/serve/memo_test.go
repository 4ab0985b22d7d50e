package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"sync"
	"testing"
)

// keyEcho stands in for the engine where a test is about the request path:
// the "result" of a job is its key, so served bytes identify the slot they
// came from and no simulation runs.
// len is the number of bodies the memo holds.
func (m *bodyMemo) len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.run) + len(m.sweep)
}

func keyEcho(j *job) ([]byte, error) { return []byte(j.key + "\n"), nil }

func mustMarshal(t testing.TB, v any) []byte {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// runVariants returns byte-different /v1/run bodies that all mean
// testScenario(seed) with journey divisor 2: the client's own marshalling,
// the same re-indented, the fields in the other order, and the first with
// bytes after the value.
func runVariants(t testing.TB, seed uint64) [][]byte {
	t.Helper()
	sc := mustMarshal(t, testScenario(seed))
	plain := mustMarshal(t, RunRequest{Scenario: sc, JourneyEveryN: 2})
	var indented bytes.Buffer
	if err := json.Indent(&indented, plain, "", "\t"); err != nil {
		t.Fatal(err)
	}
	reordered := []byte(fmt.Sprintf(`{"journey_every_n":2,"scenario":%s}`, sc))
	trailing := append(append([]byte(nil), plain...), "\n] trailing bytes"...)
	return [][]byte{plain, indented.Bytes(), reordered, trailing}
}

func sweepVariants(t testing.TB, seed uint64) [][]byte {
	t.Helper()
	sc := mustMarshal(t, testScenario(seed))
	plain := mustMarshal(t, SweepRequest{Name: "cmp", Scenario: sc, Schemes: []string{"flood", "clnlr"}, Reps: 2})
	var indented bytes.Buffer
	if err := json.Indent(&indented, plain, "", "  "); err != nil {
		t.Fatal(err)
	}
	reordered := []byte(fmt.Sprintf(`{"reps":2,"schemes":["flood","flood","clnlr"],"scenario":%s,"name":"cmp"}`, sc))
	trailing := append(append([]byte(nil), plain...), " {"...)
	return [][]byte{plain, indented.Bytes(), reordered, trailing}
}

// acceptedCases is the 200 half of the differential table.
func acceptedCases(t testing.TB) []requestCase {
	t.Helper()
	retired, err := os.ReadFile("testdata/retired_fields.json")
	if err != nil {
		t.Fatal(err)
	}
	cases := []requestCase{
		{"minimal overlay", "/v1/run", []byte(`{"scenario":{"Scheme":"flood"}}`), http.StatusOK},
		{"empty object", "/v1/run", []byte(`{}`), http.StatusOK},
		{"minimal overlay", "/v1/sweep", []byte(`{"scenario":{"Scheme":"flood"},"reps":1}`), http.StatusOK},
		{"retired fields", "/v1/run", mustMarshal(t, RunRequest{Scenario: retired}), http.StatusOK},
		{"retired fields", "/v1/sweep", mustMarshal(t, SweepRequest{Scenario: retired, Reps: 1}), http.StatusOK},
	}
	for i, b := range runVariants(t, 81) {
		cases = append(cases, requestCase{fmt.Sprintf("full scenario, variant %d", i), "/v1/run", b, http.StatusOK})
	}
	for i, b := range sweepVariants(t, 82) {
		cases = append(cases, requestCase{fmt.Sprintf("full scenario, variant %d", i), "/v1/sweep", b, http.StatusOK})
	}
	return cases
}

// TestRepeatAnswersLikeFirst is the memo's differential table: whatever a
// body answered the first time — status, job key, bytes — it answers the
// second time, and a repeated 200 is a hit that was not decoded.
func TestRepeatAnswersLikeFirst(t *testing.T) {
	srv, _ := newTestServer(t, Config{})
	srv.runHook = keyEcho
	for _, c := range append(acceptedCases(t), badRequestCases()...) {
		first := serveRaw(srv.Handler(), c.path, c.body)
		if first.Code != c.status {
			t.Errorf("%s %s: status %d (%s), want %d", c.path, c.name, first.Code, first.Body, c.status)
			continue
		}
		before := srv.Stats().DigestHits
		second := serveRaw(srv.Handler(), c.path, c.body)
		if second.Code != first.Code ||
			second.Header().Get("X-Job-Key") != first.Header().Get("X-Job-Key") ||
			!bytes.Equal(second.Body.Bytes(), first.Body.Bytes()) {
			t.Errorf("%s %s: first %d key %q %q, repeat %d key %q %q", c.path, c.name,
				first.Code, first.Header().Get("X-Job-Key"), first.Body,
				second.Code, second.Header().Get("X-Job-Key"), second.Body)
		}
		wantDigestHits := before
		if c.status == http.StatusOK {
			wantDigestHits++
			if got := second.Header().Get("X-Cache"); got != "hit" {
				t.Errorf("%s %s: repeat X-Cache = %q, want hit", c.path, c.name, got)
			}
			if key := first.Header().Get("X-Job-Key"); first.Body.String() != key+"\n" {
				t.Errorf("%s %s: served %q under key %q", c.path, c.name, first.Body, key)
			}
		}
		if got := srv.Stats().DigestHits; got != wantDigestHits {
			t.Errorf("%s %s: digest hits %d → %d, want %d", c.path, c.name, before, got, wantDigestHits)
		}
	}
}

// TestEqualBodiesShareOneSlot pins that the memo sits in front of
// normalisation, not in place of it: byte-different bodies meaning the
// same job cost one engine run and one cache slot, each remembered as its
// own entry.
func TestEqualBodiesShareOneSlot(t *testing.T) {
	for _, ep := range []struct {
		path   string
		bodies [][]byte
	}{{"/v1/run", runVariants(t, 83)}, {"/v1/sweep", sweepVariants(t, 84)}} {
		srv, _ := newTestServer(t, Config{})
		srv.runHook = keyEcho
		var key string
		for round := 0; round < 2; round++ {
			for i, b := range ep.bodies {
				rw := serveRaw(srv.Handler(), ep.path, b)
				if rw.Code != http.StatusOK {
					t.Fatalf("%s variant %d: %d %s", ep.path, i, rw.Code, rw.Body)
				}
				if key == "" {
					key = rw.Header().Get("X-Job-Key")
				}
				if got := rw.Header().Get("X-Job-Key"); got != key {
					t.Fatalf("%s variant %d: key %s, want the first variant's %s", ep.path, i, got, key)
				}
			}
		}
		st := srv.Stats()
		if st.EngineRuns != 1 || st.CacheEntries != 1 {
			t.Fatalf("%s: %d engine runs, %d cache entries for %d equal bodies, want 1 and 1", ep.path, st.EngineRuns, st.CacheEntries, len(ep.bodies))
		}
		if n := srv.memo.len(); n != len(ep.bodies) {
			t.Fatalf("%s: memo holds %d entries, want one per distinct body (%d)", ep.path, n, len(ep.bodies))
		}
		if want := uint64(len(ep.bodies)); st.DigestHits != want || st.CacheHits != 2*want-1 {
			t.Fatalf("%s: %d digest hits of %d hits, want %d of %d", ep.path, st.DigestHits, st.CacheHits, want, 2*want-1)
		}
	}
}

// TestMemoBoundedByEntryCap sends more distinct valid bodies than the
// entry cap allows entries: the memo never exceeds the cap, forgets oldest
// first, and a forgotten body still answers correctly.
func TestMemoBoundedByEntryCap(t *testing.T) {
	const entryCap, extra = 4, 3
	srv, _ := newTestServer(t, Config{CacheMaxEntries: entryCap})
	srv.runHook = keyEcho
	var bodies [][]byte
	for i := 0; i < entryCap+extra; i++ {
		b := mustMarshal(t, RunRequest{Scenario: mustMarshal(t, testScenario(uint64(100+i)))})
		bodies = append(bodies, b)
		if rw := serveRaw(srv.Handler(), "/v1/run", b); rw.Code != http.StatusOK {
			t.Fatalf("body %d: %d %s", i, rw.Code, rw.Body)
		}
		if n := srv.memo.len(); n > entryCap {
			t.Fatalf("memo holds %d entries after %d bodies, cap is %d", n, i+1, entryCap)
		}
	}
	for i, b := range bodies {
		remembered := srv.memo.get("run", b) != nil
		if want := i >= extra; remembered != want {
			t.Errorf("body %d remembered = %v, want %v (oldest forgotten first)", i, remembered, want)
		}
	}
	rw := serveRaw(srv.Handler(), "/v1/run", bodies[0])
	if rw.Code != http.StatusOK || rw.Body.String() != rw.Header().Get("X-Job-Key")+"\n" {
		t.Fatalf("forgotten body answered %d %q", rw.Code, rw.Body)
	}
	if n := srv.memo.len(); n != entryCap {
		t.Fatalf("memo holds %d entries, want exactly the cap %d", n, entryCap)
	}
}

// TestEvictedResultReruns pins what a remembered body is worth once its
// result is gone: nothing. The body misses, runs again and serves the
// right bytes — under the entry cap (which also forgets the body) and
// under the byte cap (which leaves the entry pointing at an evicted key).
func TestEvictedResultReruns(t *testing.T) {
	for name, cfg := range map[string]Config{
		"entry cap": {CacheMaxEntries: 1},
		"byte cap":  {CacheMaxBytes: 100}, // one 65-byte keyEcho result fits, two do not
	} {
		t.Run(name, func(t *testing.T) {
			srv, _ := newTestServer(t, cfg)
			srv.runHook = keyEcho
			first := mustMarshal(t, RunRequest{Scenario: mustMarshal(t, testScenario(91))})
			other := mustMarshal(t, RunRequest{Scenario: mustMarshal(t, testScenario(92))})

			miss := serveRaw(srv.Handler(), "/v1/run", first)
			hit := serveRaw(srv.Handler(), "/v1/run", first)
			if miss.Header().Get("X-Cache") != "miss" || hit.Header().Get("X-Cache") != "hit" {
				t.Fatalf("X-Cache %q then %q, want miss then hit", miss.Header().Get("X-Cache"), hit.Header().Get("X-Cache"))
			}
			serveRaw(srv.Handler(), "/v1/run", other) // evicts the first result
			if srv.Stats().CacheEntries != 1 {
				t.Fatalf("cache holds %d entries, want 1", srv.Stats().CacheEntries)
			}
			if name == "byte cap" {
				if srv.memo.get("run", first) == nil {
					t.Fatal("byte-cap eviction forgot the body; the stale-entry path is not exercised")
				}
			}

			runs := srv.Stats().EngineRuns
			again := serveRaw(srv.Handler(), "/v1/run", first)
			if again.Code != http.StatusOK || again.Header().Get("X-Cache") != "miss" {
				t.Fatalf("evicted result answered %d X-Cache %q, want 200 miss", again.Code, again.Header().Get("X-Cache"))
			}
			if !bytes.Equal(again.Body.Bytes(), miss.Body.Bytes()) || again.Body.Len() == 0 {
				t.Fatalf("evicted result re-served %q, want %q", again.Body, miss.Body)
			}
			if got := srv.Stats().EngineRuns; got != runs+1 {
				t.Fatalf("engine runs %d → %d, want one re-run", runs, got)
			}
		})
	}
}

// TestDigestsAreEndpointScoped posts the same bytes to both endpoints: a
// body remembered on one must be decoded afresh — and here refused — on
// the other, never answered with the first endpoint's result.
func TestDigestsAreEndpointScoped(t *testing.T) {
	srv, _ := newTestServer(t, Config{})
	srv.runHook = keyEcho
	sc := mustMarshal(t, testScenario(93))
	runBody := mustMarshal(t, RunRequest{Scenario: sc})
	sweepBody := mustMarshal(t, SweepRequest{Scenario: sc, Reps: 1})
	for _, c := range []struct{ own, other string }{{"/v1/run", "/v1/sweep"}, {"/v1/sweep", "/v1/run"}} {
		body := runBody
		if c.own == "/v1/sweep" {
			body = sweepBody
		}
		for i := 0; i < 2; i++ { // remembered, then answered from the memo
			if rw := serveRaw(srv.Handler(), c.own, body); rw.Code != http.StatusOK {
				t.Fatalf("%s: %d %s", c.own, rw.Code, rw.Body)
			}
		}
		if rw := serveRaw(srv.Handler(), c.other, body); rw.Code != http.StatusBadRequest {
			t.Fatalf("%s body posted to %s answered %d %q, want 400", c.own, c.other, rw.Code, rw.Body)
		}
	}
}

// TestStatsCountHitsByTier pins the three hit counters against each other:
// cache_hits counts every hit, digest_hits those answered without
// decoding, cache_disk_hits those read back from the disk tier.
func TestStatsCountHitsByTier(t *testing.T) {
	dir := t.TempDir()
	bodies := runVariants(t, 94)
	want := func(srv *Server, hits, digest, disk uint64) {
		t.Helper()
		st := srv.Stats()
		if st.CacheHits != hits || st.DigestHits != digest || st.CacheDiskHits != disk {
			t.Fatalf("cache_hits %d digest_hits %d cache_disk_hits %d, want %d %d %d",
				st.CacheHits, st.DigestHits, st.CacheDiskHits, hits, digest, disk)
		}
	}

	srv1, ts1 := newTestServer(t, Config{CacheDir: dir})
	srv1.runHook = keyEcho
	serveRaw(srv1.Handler(), "/v1/run", bodies[0]) // miss
	want(srv1, 0, 0, 0)
	serveRaw(srv1.Handler(), "/v1/run", bodies[0]) // same bytes
	want(srv1, 1, 1, 0)
	serveRaw(srv1.Handler(), "/v1/run", bodies[1]) // equal, other bytes: decoded
	want(srv1, 2, 1, 0)

	srv2, _ := newTestServer(t, Config{CacheDir: dir}) // a restart: empty memo and memory tier
	serveRaw(srv2.Handler(), "/v1/run", bodies[0])
	want(srv2, 1, 0, 1)
	serveRaw(srv2.Handler(), "/v1/run", bodies[0])
	want(srv2, 2, 1, 1)
	if srv2.Stats().EngineRuns != 0 {
		t.Fatal("restarted daemon ran the engine for a stored result")
	}

	_, raw := get(t, ts1, "/v1/stats")
	var wire map[string]any
	if err := json.Unmarshal(raw, &wire); err != nil {
		t.Fatal(err)
	}
	if wire["digest_hits"] != 1.0 || wire["cache_disk_hits"] != 0.0 || wire["cache_hits"] != 2.0 {
		t.Fatalf("/v1/stats = %s", raw)
	}
}

// TestDigestHitDecodesNothing bounds the allocations of a repeat through
// the whole handler (mux, body read, memo and cache lookups, response
// headers). Decoding the same body costs several times the ceiling — a
// sim.Scenario decode alone is dozens of allocations — so a fast path that
// started parsing again cannot pass.
func TestDigestHitDecodesNothing(t *testing.T) {
	srv, _ := newTestServer(t, Config{})
	srv.runHook = keyEcho
	h := srv.Handler()
	body := runVariants(t, 95)[0]
	if rw := serveRaw(h, "/v1/run", body); rw.Code != http.StatusOK {
		t.Fatalf("priming request: %d %s", rw.Code, rw.Body)
	}

	rd := bytes.NewReader(body)
	req := httptest.NewRequest(http.MethodPost, "/v1/run", rd)
	req.Body = io.NopCloser(rd)
	rw := httptest.NewRecorder()
	serve := func() {
		rd.Reset(body)
		rw.Body.Reset()
		h.ServeHTTP(rw, req)
	}
	before := srv.Stats().DigestHits
	const ceiling = 8 // measured 1: the MaxBytesReader (the body buffer is pooled, the header values prebuilt)
	got := testing.AllocsPerRun(200, serve)
	if rw.Code != http.StatusOK || rw.Header().Get("X-Cache") != "hit" {
		t.Fatalf("measured request answered %d X-Cache %q", rw.Code, rw.Header().Get("X-Cache"))
	}
	if hits := srv.Stats().DigestHits - before; hits != 201 {
		t.Fatalf("%d of 201 measured requests were digest hits", hits)
	}
	if got > ceiling {
		t.Fatalf("a digest hit costs %.0f allocations, ceiling %d", got, ceiling)
	}
	decode := testing.AllocsPerRun(20, func() {
		if _, err := slowKey("/v1/run", body); err != nil {
			t.Fatal(err)
		}
	})
	if decode < 2*ceiling {
		t.Fatalf("decoding the body costs %.0f allocations: the ceiling %d no longer separates the two paths", decode, ceiling)
	}
}

// TestDigestMemoFIFO checks the memo on its own: bounded across both
// endpoints, oldest out first, a repeated put is a no-op, the same bytes
// on the other endpoint are another entry, and a body over memoMaxBody is
// never kept.
func TestDigestMemoFIFO(t *testing.T) {
	m := newBodyMemo(3)
	b := func(i int) []byte { return []byte{byte(i)} }
	for i := 0; i < 3; i++ {
		m.put("run", b(i), fmt.Sprint(i))
	}
	m.put("run", b(0), "again") // already known: neither replaced nor moved
	m.put("run", b(3), "3")     // evicts 0
	m.put("sweep", b(4), "4")   // evicts 1
	for i, want := range []string{"", "", "2", "3", ""} {
		got := m.get("run", b(i))
		if (got != nil) != (want != "") || got != nil && got[0] != want {
			t.Errorf("run body %d → %q; want %q", i, got, want)
		}
	}
	if got := m.get("sweep", b(4)); len(got) != 1 || got[0] != "4" {
		t.Errorf("sweep body 4 → %q, want [4]", got)
	}
	if m.get("sweep", b(3)) != nil {
		t.Error("a body remembered on run is known on sweep")
	}
	if m.len() != 3 || len(m.order) != 3 {
		t.Fatalf("memo holds %d keys, %d ring slots, want 3 and 3", m.len(), len(m.order))
	}
	big := bytes.Repeat([]byte{'x'}, memoMaxBody+1)
	m.put("run", big, "big")
	if m.get("run", big) != nil || m.len() != 3 {
		t.Fatalf("a %d-byte body was memoised", len(big))
	}
}

// TestLongBodyNeverMemoised sends a valid /v1/run body one byte over
// memoMaxBody (trailing spaces after the value, which decoding ignores)
// three times: each answer is right and comes from the decode path, the
// memo does not grow, and a body at exactly memoMaxBody is remembered.
func TestLongBodyNeverMemoised(t *testing.T) {
	srv, _ := newTestServer(t, Config{})
	srv.runHook = keyEcho
	plain := mustMarshal(t, RunRequest{Scenario: mustMarshal(t, testScenario(96))})
	pad := func(n int) []byte {
		return append(append([]byte(nil), plain...), bytes.Repeat([]byte(" "), n-len(plain))...)
	}
	long := pad(memoMaxBody + 1)
	var key string
	for i := 0; i < 3; i++ {
		before := srv.Stats()
		rw := serveRaw(srv.Handler(), "/v1/run", long)
		if i == 0 {
			key = rw.Header().Get("X-Job-Key")
		}
		if rw.Code != http.StatusOK || rw.Header().Get("X-Job-Key") != key || rw.Body.String() != key+"\n" {
			t.Fatalf("request %d: %d key %q body %q, want 200 under %q", i, rw.Code, rw.Header().Get("X-Job-Key"), rw.Body, key)
		}
		after := srv.Stats()
		if after.DigestHits != before.DigestHits {
			t.Fatalf("request %d of a %d-byte body counted a digest hit", i, len(long))
		}
		if i > 0 && after.CacheHits != before.CacheHits+1 {
			t.Fatalf("request %d: cache hits %d → %d, want a decoded hit", i, before.CacheHits, after.CacheHits)
		}
		if n := srv.memo.len(); n != 0 {
			t.Fatalf("request %d: memo holds %d entries, want 0", i, n)
		}
	}
	edge := pad(memoMaxBody)
	for i := 0; i < 2; i++ {
		serveRaw(srv.Handler(), "/v1/run", edge)
	}
	if st := srv.Stats(); st.DigestHits != 1 || srv.memo.len() != 1 {
		t.Fatalf("a %d-byte body: %d digest hits, memo length %d, want 1 and 1", len(edge), st.DigestHits, srv.memo.len())
	}
}

// TestHitHeadersMatchMiss pins the prebuilt hit headers: a memoised hit
// carries the miss's Content-Type, X-Job-Key and (but for its value)
// X-Cache, and a caller that changes one response's header map through
// http.Header — Set, Add, Del — does not change the next hit's.
func TestHitHeadersMatchMiss(t *testing.T) {
	srv, _ := newTestServer(t, Config{})
	srv.runHook = keyEcho
	body := runVariants(t, 97)[0]
	miss := serveRaw(srv.Handler(), "/v1/run", body)
	if miss.Code != http.StatusOK || miss.Header().Get("X-Cache") != "miss" {
		t.Fatalf("first request: %d X-Cache %q", miss.Code, miss.Header().Get("X-Cache"))
	}
	want := miss.Header().Clone()
	want["X-Cache"] = []string{"hit"}
	for i := 0; i < 3; i++ {
		before := srv.Stats().DigestHits
		hit := serveRaw(srv.Handler(), "/v1/run", body)
		if srv.Stats().DigestHits != before+1 {
			t.Fatalf("request %d was not a digest hit", i)
		}
		if got := hit.Header(); !reflect.DeepEqual(got, want) {
			t.Fatalf("hit %d headers %v, want %v", i, got, want)
		}
		h := hit.Header()
		h.Add("X-Job-Key", "tampered")
		h.Set("X-Cache", "tampered")
		h.Add("Content-Type", "text/plain")
		h.Del("Content-Type")
	}
}

// discardWriter is the least a ResponseWriter can be: one header map,
// cleared per request, and writes that go nowhere.
type discardWriter struct{ h http.Header }

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w *discardWriter) WriteHeader(int)             {}

// TestMemoHitAllocs pins the allocations of a memoised /v1/run hit through
// the whole handler with nothing of the writer's own in the count. The one
// left is the http.MaxBytesReader around the body; the body buffer comes
// from bodyBufs and the three header values are prebuilt.
func TestMemoHitAllocs(t *testing.T) {
	srv, _ := newTestServer(t, Config{})
	srv.runHook = keyEcho
	h := srv.Handler()
	body := runVariants(t, 98)[0]
	if rw := serveRaw(h, "/v1/run", body); rw.Code != http.StatusOK {
		t.Fatalf("priming request: %d %s", rw.Code, rw.Body)
	}
	rd := bytes.NewReader(body)
	req := httptest.NewRequest(http.MethodPost, "/v1/run", rd)
	req.Body = io.NopCloser(rd)
	w := &discardWriter{h: make(http.Header)}
	before := srv.Stats().DigestHits
	const pinned = 1
	got := testing.AllocsPerRun(200, func() {
		rd.Reset(body)
		clear(w.h)
		h.ServeHTTP(w, req)
	})
	if hits := srv.Stats().DigestHits - before; hits != 201 {
		t.Fatalf("%d of 201 measured requests were digest hits", hits)
	}
	if w.h.Get("X-Cache") != "hit" {
		t.Fatalf("measured request answered X-Cache %q", w.h.Get("X-Cache"))
	}
	if got > pinned {
		t.Fatalf("a memoised hit costs %.0f allocations, pinned at %d", got, pinned)
	}
}

// TestConcurrentMemoHits sends remembered bodies of both endpoints from
// several goroutines at once: every answer is the result of its own body,
// so no pooled body buffer is reused while a request still reads it. Run
// it under -race.
func TestConcurrentMemoHits(t *testing.T) {
	srv, _ := newTestServer(t, Config{})
	srv.runHook = keyEcho
	type sent struct{ path, key string }
	bodies := map[string]sent{}
	for i, b := range append(runVariants(t, 99), sweepVariants(t, 99)...) {
		path := "/v1/run"
		if i >= 4 {
			path = "/v1/sweep"
		}
		rw := serveRaw(srv.Handler(), path, b)
		if rw.Code != http.StatusOK {
			t.Fatalf("%s priming request %d: %d %s", path, i, rw.Code, rw.Body)
		}
		bodies[string(b)] = sent{path, rw.Header().Get("X-Job-Key")}
	}
	before := srv.Stats().DigestHits
	const workers, rounds = 4, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for b, want := range bodies {
					rw := serveRaw(srv.Handler(), want.path, []byte(b))
					if rw.Code != http.StatusOK || rw.Header().Get("X-Job-Key") != want.key || rw.Body.String() != want.key+"\n" {
						t.Errorf("%s answered %d key %q %q, want %q", want.path, rw.Code, rw.Header().Get("X-Job-Key"), rw.Body, want.key)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	if got, want := srv.Stats().DigestHits-before, uint64(workers*rounds*len(bodies)); got != want {
		t.Fatalf("%d digest hits, want %d", got, want)
	}
}
