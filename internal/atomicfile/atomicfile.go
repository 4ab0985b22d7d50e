// Package atomicfile publishes files by writing a temporary file beside
// the target and renaming it over the target, so a reader — or the next
// process after a crash — sees the old file or the whole new one, never a
// part. It is the one place the sweep checkpoints and the result cache's
// disk tier write files.
package atomicfile

import "os"

// Staged is a file written in full under a temporary name, not yet
// published.
type Staged struct{ tmp, path string }

// Stage writes data to path's temporary name (path + ".tmp", mode 0644)
// and returns it unpublished. On error nothing is left behind.
func Stage(path string, data []byte) (Staged, error) {
	s := Staged{tmp: path + ".tmp", path: path}
	if err := os.WriteFile(s.tmp, data, 0o644); err != nil {
		os.Remove(s.tmp)
		return Staged{}, err
	}
	return s, nil
}

// Commit renames the staged file over its target. On error the
// temporary file is removed and the target is as it was.
func (s Staged) Commit() error {
	err := os.Rename(s.tmp, s.path)
	if err != nil {
		os.Remove(s.tmp)
	}
	return err
}

// Write stages and commits data at path in one step.
func Write(path string, data []byte) error {
	s, err := Stage(path, data)
	if err != nil {
		return err
	}
	return s.Commit()
}
