package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// testKey derives a distinct valid (hex) cache key from i.
func testKey(i int) string {
	sum := sha256.Sum256([]byte{byte(i), byte(i >> 8)})
	return hex.EncodeToString(sum[:])
}

func TestCacheEntryCapEvictsLRU(t *testing.T) {
	c, err := NewCache("", 1<<20, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		c.Put(testKey(i), []byte{byte(i)})
	}
	if c.Len() != 3 {
		t.Fatalf("len = %d, want 3", c.Len())
	}
	if _, ok := c.Get(testKey(0)); ok {
		t.Fatal("oldest entry survived the entry cap")
	}
	for i := 1; i < 4; i++ {
		if _, ok := c.Get(testKey(i)); !ok {
			t.Fatalf("entry %d evicted, want only the oldest gone", i)
		}
	}
	if c.Evictions() != 1 {
		t.Fatalf("evictions = %d, want 1", c.Evictions())
	}
}

func TestCacheByteCapEvictsLRU(t *testing.T) {
	c, err := NewCache("", 100, 1000)
	if err != nil {
		t.Fatal(err)
	}
	c.Put(testKey(0), make([]byte, 60))
	c.Put(testKey(1), make([]byte, 30))
	// Touch 0 so 1 is the LRU victim.
	if _, ok := c.Get(testKey(0)); !ok {
		t.Fatal("entry 0 missing before overflow")
	}
	c.Put(testKey(2), make([]byte, 40))
	if _, ok := c.Get(testKey(1)); ok {
		t.Fatal("LRU entry survived the byte cap")
	}
	if _, ok := c.Get(testKey(0)); !ok {
		t.Fatal("recently used entry was evicted instead of the LRU one")
	}
	if c.Bytes() > 100 {
		t.Fatalf("bytes = %d over the 100-byte cap", c.Bytes())
	}
}

func TestCacheOversizedEntryServedUncached(t *testing.T) {
	c, err := NewCache("", 10, 10)
	if err != nil {
		t.Fatal(err)
	}
	c.Put(testKey(0), []byte("small"))
	c.Put(testKey(1), make([]byte, 50)) // larger than the whole budget
	if _, ok := c.Get(testKey(1)); ok {
		t.Fatal("oversized entry was cached")
	}
	if _, ok := c.Get(testKey(0)); !ok {
		t.Fatal("oversized put evicted the resident entry for nothing")
	}
}

func TestCacheDiskRoundTrip(t *testing.T) {
	dir := t.TempDir()
	c1, err := NewCache(dir, 1<<20, 10)
	if err != nil {
		t.Fatal(err)
	}
	want := []byte(`{"report":1}` + "\n")
	c1.Put(testKey(0), want)

	// A fresh cache over the same directory — a daemon restart — serves
	// the entry from disk.
	c2, err := NewCache(dir, 1<<20, 10)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := c2.Get(testKey(0))
	if !ok {
		t.Fatal("disk entry not found after restart")
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("disk round trip changed bytes: %q != %q", got, want)
	}
	// And the hit promoted it into memory.
	if c2.Len() != 1 {
		t.Fatalf("promoted len = %d, want 1", c2.Len())
	}
}

func TestCacheCorruptDiskEntryRejected(t *testing.T) {
	corruptions := map[string]func([]byte) []byte{
		"truncated": func(b []byte) []byte { return b[:len(b)-3] },
		"bit-flip":  func(b []byte) []byte { b[len(b)-1] ^= 0x01; return b },
		"bad-magic": func(b []byte) []byte { return append([]byte("not-a-cache-entry\n"), b...) },
		"empty":     func([]byte) []byte { return nil },
	}
	for name, corrupt := range corruptions {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			c, err := NewCache(dir, 1<<20, 10)
			if err != nil {
				t.Fatal(err)
			}
			key := testKey(7)
			c.Put(key, []byte("precious result bytes"))
			path := filepath.Join(dir, key+".entry")
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, corrupt(raw), 0o644); err != nil {
				t.Fatal(err)
			}

			// A fresh cache (no memory copy) must reject the damaged entry…
			c2, err := NewCache(dir, 1<<20, 10)
			if err != nil {
				t.Fatal(err)
			}
			if _, ok := c2.Get(key); ok {
				t.Fatal("corrupt disk entry was served")
			}
			if c2.DiskRejects() != 1 {
				t.Fatalf("diskRejects = %d, want 1", c2.DiskRejects())
			}
			// …delete it…
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Fatal("corrupt entry file was not removed")
			}
			// …and a re-Put recovers as if it never existed.
			c2.Put(key, []byte("recomputed"))
			if got, ok := c2.Get(key); !ok || string(got) != "recomputed" {
				t.Fatalf("recompute after corruption: got %q ok=%v", got, ok)
			}
		})
	}
}

func TestCacheDiskPruneBoundsEntries(t *testing.T) {
	dir := t.TempDir()
	c, err := NewCache(dir, 1<<20, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		c.Put(testKey(i), []byte(fmt.Sprintf("entry %d", i)))
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, e := range entries {
		if filepath.Ext(e.Name()) == ".entry" {
			n++
		}
	}
	if n > 3 {
		t.Fatalf("disk holds %d entries, cap is 3", n)
	}
}

// TestCacheDiskPruneEvictsLeastRecentlyRead pins the disk tier's eviction
// order: a disk hit refreshes the entry's mtime, so pruning drops the
// least-recently-read entry, not simply the least-recently-written one.
func TestCacheDiskPruneEvictsLeastRecentlyRead(t *testing.T) {
	dir := t.TempDir()
	c1, err := NewCache(dir, 1<<20, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		c1.Put(testKey(i), []byte{byte(i)})
	}
	// Backdate the entries with distinct mtimes, oldest first.
	base := time.Now().Add(-time.Hour)
	for i := 0; i < 3; i++ {
		ts := base.Add(time.Duration(i) * time.Minute)
		if err := os.Chtimes(filepath.Join(dir, testKey(i)+".entry"), ts, ts); err != nil {
			t.Fatal(err)
		}
	}

	// A fresh cache (no memory copy) reads entry 0 from disk; the hit
	// must move it out of the prune victim slot.
	c2, err := NewCache(dir, 1<<20, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c2.Get(testKey(0)); !ok {
		t.Fatal("entry 0 missing from disk")
	}
	c2.Put(testKey(3), []byte{3}) // fourth entry triggers a prune

	if _, err := os.Stat(filepath.Join(dir, testKey(0)+".entry")); err != nil {
		t.Fatal("recently read entry was pruned")
	}
	if _, err := os.Stat(filepath.Join(dir, testKey(1)+".entry")); !os.IsNotExist(err) {
		t.Fatal("least-recently-read entry survived the prune")
	}
}

func countDiskEntries(t *testing.T, dir string) int {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "*.entry"))
	if err != nil {
		t.Fatal(err)
	}
	return len(names)
}

// TestCacheDiskPutsBelowCapScanNothing pins the cost of a put: while the
// disk tier is under its cap — counting what an earlier process left
// there — a put reads no directory; the first put over the cap scans once
// and leaves the tier at the cap.
func TestCacheDiskPutsBelowCapScanNothing(t *testing.T) {
	dir := t.TempDir()
	earlier, err := NewCache(dir, 1<<20, 8)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		earlier.Put(testKey(i), []byte{byte(i)})
	}

	c, err := NewCache(dir, 1<<20, 8)
	if err != nil {
		t.Fatal(err)
	}
	if c.diskCount != 3 {
		t.Fatalf("opened over 3 entries, counted %d", c.diskCount)
	}
	opened := c.diskScans
	for i := 3; i < 8; i++ {
		c.Put(testKey(i), []byte{byte(i)})
	}
	c.Put(testKey(0), []byte{0}) // rewrites a file the earlier process left: no new entry
	if c.diskScans != opened {
		t.Fatalf("%d directory scans for puts at or under the cap, want 0", c.diskScans-opened)
	}
	if c.diskCount != 8 || countDiskEntries(t, dir) != 8 {
		t.Fatalf("count %d, directory %d, want 8 and 8", c.diskCount, countDiskEntries(t, dir))
	}
	c.Put(testKey(8), []byte{8})
	if c.diskScans != opened+1 {
		t.Fatalf("%d scans for the put that passed the cap, want 1", c.diskScans-opened)
	}
	if c.diskCount != 8 || countDiskEntries(t, dir) != 8 {
		t.Fatalf("after the prune: count %d, directory %d, want 8 and 8", c.diskCount, countDiskEntries(t, dir))
	}
}

// TestCacheDiskBoundsInheritedDirectory opens a cache over a directory an
// earlier process (with a larger cap) left over this one's cap: it is cut
// to the cap at open and stays there, and a rejected entry leaves the
// count exact.
func TestCacheDiskBoundsInheritedDirectory(t *testing.T) {
	dir := t.TempDir()
	earlier, err := NewCache(dir, 1<<20, 16)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		earlier.Put(testKey(i), []byte{byte(i)})
	}
	c, err := NewCache(dir, 1<<20, 4)
	if err != nil {
		t.Fatal(err)
	}
	if n := countDiskEntries(t, dir); n != 4 || c.diskCount != 4 {
		t.Fatalf("opened over 10 entries with cap 4: directory %d, count %d", n, c.diskCount)
	}
	for i := 10; i < 14; i++ {
		c.Put(testKey(i), []byte{byte(i)})
		if n := countDiskEntries(t, dir); n > 4 {
			t.Fatalf("directory holds %d entries, cap is 4", n)
		}
	}

	fresh, err := NewCache(dir, 1<<20, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, testKey(13)+".entry"), []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := fresh.Get(testKey(13)); ok {
		t.Fatal("torn entry was served")
	}
	if n := countDiskEntries(t, dir); n != 3 || fresh.diskCount != 3 {
		t.Fatalf("after a reject: directory %d, count %d, want 3 and 3", n, fresh.diskCount)
	}
}

// TestCacheDiskPutLeavesNoTempFile: a disk write that cannot land (a
// directory sits at the entry's path) leaves no temp file behind, and
// the entry is still served from memory.
func TestCacheDiskPutLeavesNoTempFile(t *testing.T) {
	dir := t.TempDir()
	c, err := NewCache(dir, 1<<20, 8)
	if err != nil {
		t.Fatal(err)
	}
	key := testKey(1)
	if err := os.Mkdir(c.diskPath(key), 0o755); err != nil {
		t.Fatal(err)
	}
	c.Put(key, []byte("payload"))
	if left, _ := filepath.Glob(filepath.Join(dir, "*.tmp")); len(left) != 0 {
		t.Fatalf("failed disk put left %v behind", left)
	}
	if got, ok := c.Get(key); !ok || string(got) != "payload" {
		t.Fatalf("memory tier lost the entry: %q ok=%v", got, ok)
	}
}

func TestCacheRejectsUnsafeKeys(t *testing.T) {
	dir := t.TempDir()
	c, err := NewCache(dir, 1<<20, 10)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"../../etc/passwd", "short", "UPPERCASEHEX00", ""} {
		c.Put(key, []byte("x"))
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		t.Fatalf("unsafe key produced a disk file: %s", e.Name())
	}
}
