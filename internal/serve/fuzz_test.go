package serve

import (
	"bytes"
	"net/http"
	"testing"
)

// slowKey is the decode → normalise → key chain of one endpoint, as the
// handlers run it on a body the memo does not know.
func slowKey(path string, body []byte) (string, error) {
	if path == "/v1/sweep" {
		j, err := decodeSweep(body)
		if err != nil {
			return "", err
		}
		return j.key(), nil
	}
	j, err := decodeRun(body)
	if err != nil {
		return "", err
	}
	return j.key(), nil
}

// FuzzDecodeRequest feeds arbitrary bytes to both submission endpoints.
// The decode chain never panics; a body it accepts yields a 64-hex key
// that a second decode reproduces; and the daemon's first answer to the
// body (decoded) and its second (from the digest memo when the first was a
// 200) carry the status and key the chain predicts.
func FuzzDecodeRequest(f *testing.F) {
	for _, c := range append(acceptedCases(f), badRequestCases()...) {
		if len(c.body) <= 1<<16 { // the oversize bodies are TestBadRequests' business
			f.Add(c.path == "/v1/sweep", c.body)
		}
	}
	srv, _ := newTestServer(f, Config{CacheMaxEntries: 64})
	srv.runHook = keyEcho

	f.Fuzz(func(t *testing.T, sweep bool, body []byte) {
		path := "/v1/run"
		if sweep {
			path = "/v1/sweep"
		}
		key, err := slowKey(path, body)
		wantStatus := http.StatusBadRequest
		if err == nil {
			wantStatus = http.StatusOK
			if !safeKey(key) || len(key) != 64 {
				t.Fatalf("accepted body yields key %q, want 64 hex digits", key)
			}
			if again, err := slowKey(path, body); err != nil || again != key {
				t.Fatalf("second decode: key %q (%v), first %q", again, err, key)
			}
		}
		for i, name := range []string{"decoded", "repeated"} {
			before := srv.Stats().DigestHits
			rw := serveRaw(srv.Handler(), path, body)
			if rw.Code != wantStatus || rw.Header().Get("X-Job-Key") != key {
				t.Fatalf("%s answer: %d key %q, want %d key %q", name, rw.Code, rw.Header().Get("X-Job-Key"), wantStatus, key)
			}
			if wantStatus == http.StatusOK && !bytes.Equal(rw.Body.Bytes(), []byte(key+"\n")) {
				t.Fatalf("%s answer: body %q, want the result stored under %s", name, rw.Body, key)
			}
			if got := srv.Stats().DigestHits - before; i == 1 && wantStatus == http.StatusOK && got != 1 {
				t.Fatalf("repeat of an accepted body was decoded again (%d digest hits)", got)
			}
		}
		if n := srv.memo.len(); n > 64 {
			t.Fatalf("memo holds %d digests, cap 64", n)
		}
	})
}
