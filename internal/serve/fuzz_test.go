package serve

import (
	"bytes"
	"crypto/sha256"
	"net/http"
	"net/http/httptest"
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
// that a second decode reproduces; the daemon's first answer to the body
// (decoded) and its second (from the memo when the first was a 200 and the
// body is at most memoMaxBody) carry the status and key the chain
// predicts; and a body one byte away from an accepted one — a byte
// flipped, added or dropped — is never a digest hit unless it was itself
// served before.
func FuzzDecodeRequest(f *testing.F) {
	for _, c := range append(acceptedCases(f), badRequestCases()...) {
		if len(c.body) <= 1<<16 { // the oversize bodies are TestBadRequests' business
			f.Add(c.path == "/v1/sweep", c.body)
		}
	}
	srv, _ := newTestServer(f, Config{CacheMaxEntries: 64})
	srv.runHook = keyEcho
	id := func(path string, body []byte) [sha256.Size]byte {
		return sha256.Sum256(append([]byte(path+"\x00"), body...))
	}
	served := make(map[[sha256.Size]byte]bool) // every request sent, by id
	send := func(path string, body []byte) *httptest.ResponseRecorder {
		served[id(path, body)] = true
		return serveRaw(srv.Handler(), path, body)
	}

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
			rw := send(path, body)
			if rw.Code != wantStatus || rw.Header().Get("X-Job-Key") != key {
				t.Fatalf("%s answer: %d key %q, want %d key %q", name, rw.Code, rw.Header().Get("X-Job-Key"), wantStatus, key)
			}
			if wantStatus == http.StatusOK && !bytes.Equal(rw.Body.Bytes(), []byte(key+"\n")) {
				t.Fatalf("%s answer: body %q, want the result stored under %s", name, rw.Body, key)
			}
			if i == 1 && wantStatus == http.StatusOK {
				want := uint64(0)
				if len(body) <= memoMaxBody {
					want = 1
				}
				if got := srv.Stats().DigestHits - before; got != want {
					t.Fatalf("repeat of an accepted %d-byte body: %d digest hits, want %d", len(body), got, want)
				}
			}
		}
		if wantStatus == http.StatusOK && len(body) > 0 {
			mid := len(body) / 2
			for _, v := range [][]byte{
				flipped(body, 0), flipped(body, mid), flipped(body, len(body)-1),
				append(body[:len(body):len(body)], ' '), body[:len(body)-1],
			} {
				if served[id(path, v)] {
					continue
				}
				before := srv.Stats().DigestHits
				send(path, v)
				if got := srv.Stats().DigestHits - before; got != 0 {
					t.Fatalf("a %d-byte body one byte away from the accepted %d-byte one counted %d digest hits", len(v), len(body), got)
				}
			}
		}
		if n := srv.memo.len(); n > 64 {
			t.Fatalf("memo holds %d entries, cap 64", n)
		}
	})
}

// flipped returns a copy of b with the low bit of byte i inverted.
func flipped(b []byte, i int) []byte {
	c := append([]byte(nil), b...)
	c[i] ^= 1
	return c
}
