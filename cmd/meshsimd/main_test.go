package main

import (
	"bufio"
	"bytes"
	"context"
	"net/http"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"clnlr/internal/serve"
	"clnlr/internal/serve/client"
)

// buildDaemon compiles the meshsimd binary once per test binary.
func buildDaemon(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "meshsimd")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("building meshsimd: %v\n%s", err, out)
	}
	return bin
}

// TestDaemonServesAndDrainsOnSIGTERM is the end-to-end lifecycle test:
// the real binary binds an ephemeral port, serves a run through the Go
// client, then exits 0 on SIGTERM.
func TestDaemonServesAndDrainsOnSIGTERM(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the real binary")
	}
	bin := buildDaemon(t)
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-cache-dir", t.TempDir())
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()

	// The first stdout line carries the bound address.
	line, err := bufio.NewReader(stdout).ReadString('\n')
	if err != nil {
		t.Fatalf("reading listen line: %v (stderr: %s)", err, stderr.String())
	}
	const prefix = "meshsimd listening on "
	if !strings.HasPrefix(line, prefix) {
		t.Fatalf("unexpected first line %q", line)
	}
	url := strings.TrimSpace(strings.TrimPrefix(line, prefix))

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/healthz", nil)
	if err != nil {
		t.Fatal(err)
	}
	health, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("health: %v", err)
	}
	health.Body.Close()
	if health.StatusCode != http.StatusOK {
		t.Fatalf("health: %s", health.Status)
	}
	c := client.New(url)
	res, err := c.Run(ctx, serve.RunRequest{
		Scenario: []byte(`{"Name":"daemon-test","Rows":4,"Cols":4,"Flows":3,"Warmup":1000000000,"Measure":3000000000}`),
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if res.Cache != "miss" || len(res.Body) == 0 {
		t.Fatalf("first run: cache %q, %d bytes", res.Cache, len(res.Body))
	}
	res2, err := c.Run(ctx, serve.RunRequest{
		Scenario: []byte(`{"Name":"daemon-test","Rows":4,"Cols":4,"Flows":3,"Warmup":1000000000,"Measure":3000000000}`),
	})
	if err != nil {
		t.Fatalf("second run: %v", err)
	}
	if res2.Cache != "hit" || !bytes.Equal(res2.Body, res.Body) {
		t.Fatalf("second run: cache %q, identical=%v", res2.Cache, bytes.Equal(res2.Body, res.Body))
	}
	info, err := c.Version(ctx)
	if err != nil || info.Module == "" {
		t.Fatalf("version: %+v, %v", info, err)
	}

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	waitErr := make(chan error, 1)
	go func() { waitErr <- cmd.Wait() }()
	select {
	case err := <-waitErr:
		if err != nil {
			t.Fatalf("daemon exited non-zero after SIGTERM: %v (stderr: %s)", err, stderr.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("daemon did not exit within 30s of SIGTERM (stderr: %s)", stderr.String())
	}
	if !strings.Contains(stderr.String(), "drained") {
		t.Fatalf("drain log line missing from stderr: %s", stderr.String())
	}
	// The HTTP port is gone.
	if _, err := http.Get(url + "/healthz"); err == nil {
		t.Fatal("daemon still serving after exit")
	}
}

// TestVersionFlag checks the -version satellite on the daemon binary.
func TestVersionFlag(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the real binary")
	}
	bin := buildDaemon(t)
	out, err := exec.Command(bin, "-version").CombinedOutput()
	if err != nil {
		t.Fatalf("meshsimd -version: %v\n%s", err, out)
	}
	if !strings.HasPrefix(string(out), "meshsimd: ") {
		t.Fatalf("unexpected -version output %q", out)
	}
}
