package atomicfile

import (
	"os"
	"path/filepath"
	"testing"
)

// TestWriteReplacesWhole checks a publish over an existing file and that
// nothing but the target is left in the directory.
func TestWriteReplacesWhole(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "f")
	for _, want := range []string{"first\n", "second, longer\n", "3\n"} {
		if err := Write(path, []byte(want)); err != nil {
			t.Fatal(err)
		}
		if got, err := os.ReadFile(path); err != nil || string(got) != want {
			t.Fatalf("read %q (%v), want %q", got, err, want)
		}
	}
	if ents, _ := os.ReadDir(dir); len(ents) != 1 {
		t.Fatalf("directory holds %d files, want only the target", len(ents))
	}
}

// TestFailuresLeaveNothing checks both failure points: a stage into a
// missing directory and a commit onto a directory. Neither leaves a
// temporary file, and the commit leaves its target as it was.
func TestFailuresLeaveNothing(t *testing.T) {
	dir := t.TempDir()
	if _, err := Stage(filepath.Join(dir, "missing", "f"), []byte("x")); err == nil {
		t.Fatal("staging into a missing directory succeeded")
	}
	target := filepath.Join(dir, "d")
	if err := os.Mkdir(target, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(target, "keep"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Stage(target, []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	if s.Commit() == nil {
		t.Fatal("committing onto a non-empty directory succeeded")
	}
	if _, err := os.Stat(target + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("temporary file left behind (%v)", err)
	}
	if fi, err := os.Stat(target); err != nil || !fi.IsDir() {
		t.Fatalf("target changed: %v", err)
	}
}
