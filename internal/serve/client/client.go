// Package client is the Go client for the meshsimd result daemon: typed
// wrappers over the HTTP/JSON API (submit runs and sweeps, poll or stream
// job status, read daemon stats) used by cmd/meshctl and by tests.
package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"clnlr/internal/buildinfo"
	"clnlr/internal/serve"
)

// RetryError reports a load-shedding refusal: 429 when the daemon's queue
// is full, 503 when it is draining for shutdown. RetryAfter carries the
// server's backoff hint.
type RetryError struct {
	StatusCode int
	RetryAfter time.Duration
	Message    string
}

func (e *RetryError) Error() string {
	return fmt.Sprintf("daemon refused submission (%d): %s (retry after %s)",
		e.StatusCode, e.Message, e.RetryAfter)
}

// StatusError reports any other non-2xx response.
type StatusError struct {
	StatusCode int
	Message    string
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("daemon error (%d): %s", e.StatusCode, e.Message)
}

// Client talks to one meshsimd daemon.
type Client struct {
	base string
	http *http.Client
}

// New builds a client for addr ("host:port" or a full http:// URL).
func New(addr string) *Client {
	if !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	return &Client{
		base: strings.TrimSuffix(addr, "/"),
		http: &http.Client{},
	}
}

// Result is a served report: the exact bytes plus the cache disposition
// ("hit" or "miss") and the job key.
type Result struct {
	Body  []byte
	Cache string
	Key   string
}

func refusalError(resp *http.Response, body []byte) error {
	msg := strings.TrimSpace(string(body))
	switch resp.StatusCode {
	case http.StatusTooManyRequests, http.StatusServiceUnavailable:
		after := 5 * time.Second
		if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && secs > 0 {
			after = time.Duration(secs) * time.Second
		}
		return &RetryError{StatusCode: resp.StatusCode, RetryAfter: after, Message: msg}
	default:
		return &StatusError{StatusCode: resp.StatusCode, Message: msg}
	}
}

func (c *Client) post(ctx context.Context, path string, req any) (Result, error) {
	payload, err := json.Marshal(req)
	if err != nil {
		return Result{}, err
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, bytes.NewReader(payload))
	if err != nil {
		return Result{}, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := c.http.Do(hreq)
	if err != nil {
		return Result{}, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return Result{}, err
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		return Result{}, refusalError(resp, body)
	}
	return Result{
		Body:  body,
		Cache: resp.Header.Get("X-Cache"),
		Key:   resp.Header.Get("X-Job-Key"),
	}, nil
}

// Run submits a single observed run and blocks until its report is ready.
// The returned bytes are byte-identical to meshsim -report
// -canonical-report on the same scenario.
func (c *Client) Run(ctx context.Context, req serve.RunRequest) (Result, error) {
	return c.post(ctx, "/v1/run", req)
}

// Sweep submits a replication sweep and blocks until its report is ready.
func (c *Client) Sweep(ctx context.Context, req serve.SweepRequest) (Result, error) {
	return c.post(ctx, "/v1/sweep", req)
}

// SweepAsync submits a sweep without waiting: the daemon answers 202 with
// the job's status; poll JobStatus or Stream with its key.
func (c *Client) SweepAsync(ctx context.Context, req serve.SweepRequest) (serve.JobStatus, error) {
	res, err := c.post(ctx, "/v1/sweep?async=1", req)
	if err != nil {
		return serve.JobStatus{}, err
	}
	var st serve.JobStatus
	if err := json.Unmarshal(res.Body, &st); err != nil {
		return serve.JobStatus{}, fmt.Errorf("client: parsing job status: %w", err)
	}
	return st, nil
}

func (c *Client) getJSON(ctx context.Context, path string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return refusalError(resp, body)
	}
	return json.Unmarshal(body, v)
}

// Stream follows a job's NDJSON progress stream, invoking fn for every
// status until the job finishes, fn returns an error, or ctx is done.
func (c *Client) Stream(ctx context.Context, key string, fn func(serve.JobStatus) error) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/jobs/"+key+"/stream", nil)
	if err != nil {
		return err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		return refusalError(resp, body)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var st serve.JobStatus
		if err := json.Unmarshal(line, &st); err != nil {
			return fmt.Errorf("client: parsing stream line: %w", err)
		}
		if err := fn(st); err != nil {
			return err
		}
	}
	return sc.Err()
}

// Stats fetches the daemon's counter snapshot.
func (c *Client) Stats(ctx context.Context) (serve.Stats, error) {
	var st serve.Stats
	err := c.getJSON(ctx, "/v1/stats", &st)
	return st, err
}

// Version fetches the daemon's build information.
func (c *Client) Version(ctx context.Context) (buildinfo.Info, error) {
	var info buildinfo.Info
	err := c.getJSON(ctx, "/version", &info)
	return info, err
}
