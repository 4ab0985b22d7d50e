// Package serve turns the deterministic simulation engine into a
// queryable result service: an HTTP/JSON daemon (cmd/meshsimd) that
// accepts scenario submissions — single observed runs and replication
// sweeps — executes them on a bounded worker pool, and memoises every
// result in a content-addressed cache keyed by the scenario fingerprint
// plus the run parameters living outside the Scenario struct.
//
// The design leans entirely on the engine's purity: a result is a pure
// function of its key material, so
//
//   - a cache hit is byte-identical to recomputing (the golden
//     equivalence tests pin served == direct-run bytes);
//   - N concurrent identical submissions collapse onto one execution
//     (singleflight via the job table) and all receive the same bytes;
//   - a sweep interrupted by shutdown resumes bit-identically from its
//     per-cell checkpoints when resubmitted (the PR 8 machinery);
//   - request bytes → key is pure too, so a byte-identical repeat is
//     recognised by its body's bytes and answered before anything is
//     parsed (bodyMemo).
//
// Admission control is load shedding, not queueing-forever: when the
// bounded queue is full a new submission is refused with 429 and a
// Retry-After derived from the observed job-duration EWMA, so the daemon
// degrades by turning clients away instead of by growing without bound.
package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"clnlr/internal/buildinfo"
	"clnlr/internal/experiments"
	"clnlr/internal/metrics"
)

// Config sizes the daemon.
type Config struct {
	// Workers is the number of jobs executed concurrently (default 2).
	// Each sweep job additionally parallelises its replications over
	// JobWorkers engine workers.
	Workers int
	// QueueDepth bounds how many admitted jobs may wait beyond the ones
	// running (default 16). A submission that needs a new execution while
	// the queue is full is shed with 429 + Retry-After.
	QueueDepth int
	// JobWorkers bounds the engine worker pool inside one sweep job
	// (0 = GOMAXPROCS). Results are worker-count independent.
	JobWorkers int

	// CacheDir roots the on-disk cache tier and sweep checkpoints
	// ("" = memory-only cache, temp-dir checkpoints).
	CacheDir string
	// CacheMaxBytes / CacheMaxEntries cap the in-memory cache tier
	// (defaults 256 MiB / 1024 entries); CacheMaxEntries also caps the
	// disk tier's entry count.
	CacheMaxBytes   int64
	CacheMaxEntries int

	// StreamInterval is the progress-stream emission period
	// (default 500 ms).
	StreamInterval time.Duration

	// FailedJobRetention bounds how long a failed job's terminal status
	// (including ErrInterrupted from a drained sweep) stays queryable at
	// /v1/jobs/{key} after completion (default 5 min). Successful jobs
	// need no retention: their results live in the cache, which the
	// status endpoint consults.
	FailedJobRetention time.Duration
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 16
	}
	if c.CacheMaxBytes <= 0 {
		c.CacheMaxBytes = 256 << 20
	}
	if c.CacheMaxEntries <= 0 {
		c.CacheMaxEntries = 1024
	}
	if c.StreamInterval <= 0 {
		c.StreamInterval = 500 * time.Millisecond
	}
	if c.FailedJobRetention <= 0 {
		c.FailedJobRetention = 5 * time.Minute
	}
	return c
}

type jobState int

const (
	jobQueued jobState = iota
	jobRunning
	jobDone
	jobFailed
)

func (s jobState) String() string {
	switch s {
	case jobQueued:
		return "queued"
	case jobRunning:
		return "running"
	case jobDone:
		return "done"
	default:
		return "failed"
	}
}

// job is one admitted execution. Its identity is its cache key, so the
// job table doubles as the singleflight registry: a second submission of
// the same content joins the existing job instead of enqueueing another.
type job struct {
	key  string
	kind string
	prog *metrics.Progress // sweep jobs only

	exec func(*job) ([]byte, error)

	// state/result/err are guarded by Server.mu; done is closed after
	// they are final.
	state  jobState
	result []byte
	err    error
	done   chan struct{}
}

// Server is the daemon core: cache, job table, bounded queue, worker
// pool and HTTP handlers. Create with New, mount Handler, stop with
// Shutdown.
type Server struct {
	cfg   Config
	cache *Cache
	memo  *bodyMemo
	mux   *http.ServeMux

	mu     sync.Mutex
	jobs   map[string]*job
	queue  chan *job
	closed bool

	// runners pools the *sim.Observer /v1/run misses execute on
	// (exec.go). The garbage collector empties a sync.Pool within two
	// cycles, so no engine outlives a burst by long.
	runners sync.Pool

	// draining is set once shutdown has begun. Sweep jobs poll it through
	// the experiments Interrupted hook: in-flight replications drain,
	// completed cells checkpoint, and the sweep returns ErrInterrupted so
	// a resubmission after restart resumes bit-identically.
	draining atomic.Bool
	wg       sync.WaitGroup

	engineRuns     atomic.Uint64
	engineWarmRuns atomic.Uint64
	cacheHits      atomic.Uint64
	digestHits     atomic.Uint64
	cacheMiss      atomic.Uint64
	shed           atomic.Uint64
	jobsDone       atomic.Uint64
	jobsFailed     atomic.Uint64
	ewmaJobNs      atomic.Int64

	// runHook, when non-nil, replaces job execution — the test seam for
	// admission/drain tests that need controllable job durations.
	runHook func(*job) ([]byte, error)
}

// New builds the server and starts its worker pool.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	cache, err := NewCache(cfg.CacheDir, cfg.CacheMaxBytes, cfg.CacheMaxEntries)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:   cfg,
		cache: cache,
		memo:  newBodyMemo(cfg.CacheMaxEntries),
		jobs:  make(map[string]*job),
		queue: make(chan *job, cfg.QueueDepth),
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/run", s.handleRun)
	s.mux.HandleFunc("POST /v1/sweep", s.handleSweep)
	s.mux.HandleFunc("GET /v1/jobs/{key}", s.handleJobStatus)
	s.mux.HandleFunc("GET /v1/jobs/{key}/stream", s.handleJobStream)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /version", s.handleVersion)
	s.mux.Handle("GET /debug/vars", expvar.Handler())
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s, nil
}

// Handler returns the daemon's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Shutdown begins the graceful drain: new submissions are refused with
// 503, in-flight sweep jobs stop at the next replication boundary and
// checkpoint, queued and running jobs finish, and the worker pool exits.
// It returns nil once everything has drained, or ctx's error if the
// deadline expires first (workers keep draining in the background).
func (s *Server) Shutdown(ctx interface{ Done() <-chan struct{} }) error {
	s.draining.Store(true)
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		close(s.queue)
	}
	s.mu.Unlock()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return errors.New("serve: shutdown deadline expired with jobs still draining")
	}
}

func (s *Server) worker() {
	defer s.wg.Done()
	for j := range s.queue {
		s.runJob(j)
	}
}

func (s *Server) runJob(j *job) {
	s.mu.Lock()
	j.state = jobRunning
	s.mu.Unlock()
	start := time.Now()
	data, ok := s.cache.Get(j.key)
	var err error
	if !ok {
		run := j.exec
		if s.runHook != nil {
			run = s.runHook
		}
		s.engineRuns.Add(1)
		data, err = run(j)
		if err == nil {
			s.cache.Put(j.key, data)
		}
	}
	s.observeJobDuration(time.Since(start))
	s.mu.Lock()
	j.result, j.err = data, err
	if err != nil {
		j.state = jobFailed
		s.jobsFailed.Add(1)
		// Retain the failed job so an async poller can still observe the
		// error at /v1/jobs/{key} (a done job's status is synthesised from
		// the cache; a failure has no cache entry). admit treats a failed
		// entry as absent, so a resubmission re-runs rather than joining.
		time.AfterFunc(s.cfg.FailedJobRetention, func() {
			s.mu.Lock()
			if cur, ok := s.jobs[j.key]; ok && cur == j {
				delete(s.jobs, j.key)
			}
			s.mu.Unlock()
		})
	} else {
		j.state = jobDone
		s.jobsDone.Add(1)
		delete(s.jobs, j.key)
	}
	s.mu.Unlock()
	close(j.done)
}

// observeJobDuration feeds the EWMA behind Retry-After estimates.
func (s *Server) observeJobDuration(d time.Duration) {
	const alpha = 0.3
	for {
		old := s.ewmaJobNs.Load()
		var next int64
		if old == 0 {
			next = int64(d)
		} else {
			next = int64((1-alpha)*float64(old) + alpha*float64(d))
		}
		if s.ewmaJobNs.CompareAndSwap(old, next) {
			return
		}
	}
}

// retryAfterSecs estimates how long a shed client should wait: the
// backlog's expected drain time over the worker pool, clamped to
// [1 s, 1 h].
func (s *Server) retryAfterSecs() int {
	ewma := time.Duration(s.ewmaJobNs.Load())
	if ewma <= 0 {
		ewma = 5 * time.Second
	}
	backlog := len(s.queue) + 1
	secs := int(math.Ceil(ewma.Seconds() * float64(backlog) / float64(s.cfg.Workers)))
	if secs < 1 {
		secs = 1
	}
	if secs > 3600 {
		secs = 3600
	}
	return secs
}

type admitStatus int

const (
	admitJoined admitStatus = iota
	admitQueued
	admitShed
	admitDraining
)

// admit implements singleflight + queue admission under one lock: join an
// existing job for the key, or enqueue a new one, or shed.
func (s *Server) admit(kind, key string, prog *metrics.Progress, exec func(*job) ([]byte, error)) (*job, admitStatus) {
	s.mu.Lock()
	defer s.mu.Unlock()
	// A retained failed job is terminal history, not joinable work: a
	// resubmission of the same content gets a fresh execution (replacing
	// the failed entry) instead of the stale error.
	if j, ok := s.jobs[key]; ok && j.state != jobFailed {
		return j, admitJoined
	}
	if s.closed || s.draining.Load() {
		return nil, admitDraining
	}
	j := &job{key: key, kind: kind, prog: prog, exec: exec, done: make(chan struct{})}
	select {
	case s.queue <- j:
		s.jobs[key] = j
		return j, admitQueued
	default:
		return nil, admitShed
	}
}

// maxBodyBytes caps a submission body.
const maxBodyBytes = 4 << 20

// maxPooledBody is the largest body buffer intake returns to bodyBufs.
const maxPooledBody = 64 << 10

// bodyBufs recycles the buffers of bodies answered from the memo. A body
// that goes on to be decoded keeps its buffer, so nothing the decode path
// or a job holds can be overwritten by a later request.
var bodyBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// intake is the front of both submission endpoints: it reads the whole
// body (answering 413 over the cap, 400 when it cannot be read) and, when
// the memo knows the body and the cache still holds that key's result,
// answers from those two lookups alone. ok reports that the request is
// still unanswered — a new body, a forgotten one or an evicted result —
// and the caller takes the decode path, recording the body once it has
// normalised.
func (s *Server) intake(w http.ResponseWriter, r *http.Request, kind string) (body []byte, ok bool) {
	buf := bodyBufs.Get().(*bytes.Buffer)
	buf.Reset()
	if n := r.ContentLength; n > 0 && n <= maxBodyBytes {
		buf.Grow(int(n) + bytes.MinRead) // a declared length costs at most one allocation
	}
	if _, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, maxBodyBytes)); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			http.Error(w, fmt.Sprintf("request body over %d bytes", tooLarge.Limit), http.StatusRequestEntityTooLarge)
		} else {
			http.Error(w, fmt.Sprintf("bad request body: %v", err), http.StatusBadRequest)
		}
		return nil, false
	}
	body = buf.Bytes()
	if keyHdr := s.memo.get(kind, body); keyHdr != nil {
		if data, cached := s.cache.Get(keyHdr[0]); cached {
			s.cacheHits.Add(1)
			s.digestHits.Add(1)
			writeResult(w, keyHdr, data, hdrHit)
			if buf.Cap() <= maxPooledBody {
				bodyBufs.Put(buf)
			}
			return nil, false
		}
	}
	return body, true
}

// Header values shared by every response that carries them. A header map
// holds them by assignment; http.Header's Set, Add and Del replace or
// extend a value with a new slice, so no response can change another's.
var (
	hdrJSON = []string{"application/json"}
	hdrHit  = []string{"hit"}
	hdrMiss = []string{"miss"}
)

// writeResult writes a result's headers and bytes. keyHdr is the
// X-Job-Key value, a one-element slice holding the job key.
func writeResult(w http.ResponseWriter, keyHdr []string, data []byte, cache []string) {
	h := w.Header()
	h["Content-Type"] = hdrJSON
	h["X-Cache"] = cache
	h["X-Job-Key"] = keyHdr
	w.Write(data)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// submit is the shared synchronous-submission path: cache, singleflight,
// admission, then wait (or return 202 under ?async=1).
func (s *Server) submit(w http.ResponseWriter, r *http.Request, kind, key string, prog *metrics.Progress, exec func(*job) ([]byte, error)) {
	if data, ok := s.cache.Get(key); ok {
		s.cacheHits.Add(1)
		writeResult(w, []string{key}, data, hdrHit)
		return
	}
	s.cacheMiss.Add(1)
	j, status := s.admit(kind, key, prog, exec)
	switch status {
	case admitShed:
		s.shed.Add(1)
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSecs()))
		http.Error(w, "job queue full; retry later", http.StatusTooManyRequests)
		return
	case admitDraining:
		w.Header().Set("Retry-After", "10")
		http.Error(w, "daemon is shutting down", http.StatusServiceUnavailable)
		return
	}
	if r.URL.Query().Get("async") == "1" {
		writeJSON(w, http.StatusAccepted, s.statusOf(j))
		return
	}
	select {
	case <-r.Context().Done():
		// Client gave up; the job keeps running and lands in the cache
		// for the retry.
		return
	case <-j.done:
	}
	if j.err != nil {
		if errors.Is(j.err, experiments.ErrInterrupted) {
			w.Header().Set("Retry-After", "10")
			http.Error(w, "daemon shut down mid-sweep; completed cells are checkpointed — resubmit to resume", http.StatusServiceUnavailable)
			return
		}
		http.Error(w, j.err.Error(), http.StatusInternalServerError)
		return
	}
	writeResult(w, []string{key}, j.result, hdrMiss)
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	body, ok := s.intake(w, r, "run")
	if !ok {
		return
	}
	rj, err := decodeRun(body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	key := rj.key()
	s.memo.put("run", body, key)
	s.submit(w, r, "run", key, nil, func(*job) ([]byte, error) {
		return s.executeRun(rj)
	})
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	body, ok := s.intake(w, r, "sweep")
	if !ok {
		return
	}
	sj, err := decodeSweep(body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	key := sj.key()
	s.memo.put("sweep", body, key)
	s.submit(w, r, "sweep", key, metrics.NewProgress(), func(j *job) ([]byte, error) {
		return s.executeSweep(sj, key, j.prog)
	})
}

// Stats is the daemon's counter snapshot, served at /v1/stats and
// published to expvar. EngineRuns counts actual simulations executed —
// the counter the cache-hit assertions in CI ride on. EngineWarmRuns is
// the part of the /v1/run misses that ran on a pooled engine that had run
// before, rather than on a freshly built one.
type Stats struct {
	EngineRuns     uint64 `json:"engine_runs"`
	EngineWarmRuns uint64 `json:"engine_warm_runs"`
	CacheHits      uint64 `json:"cache_hits"`
	CacheMisses    uint64 `json:"cache_misses"`
	Shed           uint64 `json:"shed"`
	JobsDone       uint64 `json:"jobs_done"`
	JobsFailed     uint64 `json:"jobs_failed"`

	// DigestHits is the part of CacheHits answered from the request memo
	// (a byte-identical repeat of a remembered body) without decoding it;
	// CacheDiskHits counts results read back from the disk tier and
	// promoted to memory.
	DigestHits    uint64 `json:"digest_hits"`
	CacheDiskHits uint64 `json:"cache_disk_hits"`

	JobsInFlight int  `json:"jobs_in_flight"`
	QueueLen     int  `json:"queue_len"`
	Draining     bool `json:"draining"`

	CacheEntries   int    `json:"cache_entries"`
	CacheBytes     int64  `json:"cache_bytes"`
	CacheEvictions uint64 `json:"cache_evictions"`
	DiskRejects    uint64 `json:"cache_disk_rejects"`
}

// Stats returns a point-in-time counter snapshot.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	inflight := len(s.jobs)
	queued := len(s.queue)
	s.mu.Unlock()
	return Stats{
		EngineRuns:     s.engineRuns.Load(),
		EngineWarmRuns: s.engineWarmRuns.Load(),
		CacheHits:      s.cacheHits.Load(),
		CacheMisses:    s.cacheMiss.Load(),
		DigestHits:     s.digestHits.Load(),
		CacheDiskHits:  s.cache.DiskHits(),
		Shed:           s.shed.Load(),
		JobsDone:       s.jobsDone.Load(),
		JobsFailed:     s.jobsFailed.Load(),
		JobsInFlight:   inflight,
		QueueLen:       queued,
		Draining:       s.draining.Load(),
		CacheEntries:   s.cache.Len(),
		CacheBytes:     s.cache.Bytes(),
		CacheEvictions: s.cache.Evictions(),
		DiskRejects:    s.cache.DiskRejects(),
	}
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	w.Write([]byte("ok\n"))
}

func (s *Server) handleVersion(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, buildinfo.Get())
}

var expvarOnce sync.Once

// PublishExpvar exposes the server's stats as the expvar variable
// "meshsimd" (served at /debug/vars on both the daemon mux and the prof
// debug endpoint). expvar names are process-global, so only the first
// server of a process can be published; meshsimd main calls this once.
func PublishExpvar(s *Server) {
	expvarOnce.Do(func() {
		expvar.Publish("meshsimd", expvar.Func(func() any { return s.Stats() }))
	})
}
