package serve

import (
	"bufio"
	"bytes"
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"clnlr/internal/atomicfile"
)

// Cache is the content-addressed result store: an in-memory LRU tier with
// byte and entry caps over an optional checksummed on-disk tier. Keys are
// the hex job hashes computed by keyMaterial.hash, values are the exact
// response bytes the daemon serves — because every result is a pure
// function of its key material, a hit is byte-identical to recomputing.
//
// The disk tier is write-through: every Put lands in both tiers, a memory
// miss falls through to disk and promotes the entry back. Disk entries
// carry a SHA-256 header; a corrupt or truncated file is deleted and
// treated as a miss, so the worst a damaged cache directory can cause is
// one recomputation.
type Cache struct {
	mu         sync.Mutex
	maxBytes   int64
	maxEntries int
	bytes      int64
	ll         *list.List // front = most recently used
	items      map[string]*list.Element

	dir string // "" = memory-only

	// diskMu orders the disk tier's publishes, removals and prunes, so
	// diskCount — the number of .entry files this cache believes the
	// directory holds — only needs a directory scan to correct it when it
	// passes the cap.
	diskMu    sync.Mutex
	diskCount int
	diskScans int // directory scans made; tests pin that puts under the cap make none

	evictions   atomic.Uint64
	diskHits    atomic.Uint64
	diskRejects atomic.Uint64
}

type cacheEntry struct {
	key  string
	data []byte
}

// NewCache returns a cache bounded by maxBytes and maxEntries (both must
// be positive) with an optional disk tier rooted at dir (created if
// missing; "" disables it). The same caps bound the disk tier's entry
// count: a directory left over cap by an earlier process is pruned here.
func NewCache(dir string, maxBytes int64, maxEntries int) (*Cache, error) {
	if maxBytes <= 0 || maxEntries <= 0 {
		return nil, fmt.Errorf("serve: cache caps must be positive (bytes=%d entries=%d)", maxBytes, maxEntries)
	}
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("serve: cache dir: %w", err)
		}
	}
	c := &Cache{
		maxBytes:   maxBytes,
		maxEntries: maxEntries,
		ll:         list.New(),
		items:      make(map[string]*list.Element),
		dir:        dir,
	}
	if dir != "" {
		c.diskPruneLocked() // nothing else holds c yet
	}
	return c, nil
}

// Get returns the cached bytes for key. A memory miss consults the disk
// tier; a valid disk entry is promoted back into memory.
func (c *Cache) Get(key string) ([]byte, bool) {
	c.mu.Lock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		data := el.Value.(*cacheEntry).data
		c.mu.Unlock()
		return data, true
	}
	c.mu.Unlock()
	data, ok := c.diskGet(key)
	if !ok {
		return nil, false
	}
	c.diskHits.Add(1)
	c.put(key, data, false) // promote without rewriting the file
	return data, true
}

// Contains reports whether key is present in either tier without reading
// or promoting the entry (the disk check is existence-only; a corrupt file
// will be caught by the Get that follows).
func (c *Cache) Contains(key string) bool {
	c.mu.Lock()
	_, ok := c.items[key]
	c.mu.Unlock()
	if ok {
		return true
	}
	if c.dir == "" || !safeKey(key) {
		return false
	}
	_, err := os.Stat(c.diskPath(key))
	return err == nil
}

// Put stores the bytes under key in both tiers.
func (c *Cache) Put(key string, data []byte) {
	c.put(key, data, true)
}

func (c *Cache) put(key string, data []byte, writeDisk bool) {
	c.mu.Lock()
	if el, ok := c.items[key]; ok {
		// Same key means same content (content addressing); just refresh.
		c.ll.MoveToFront(el)
		c.mu.Unlock()
		return
	}
	// An entry larger than the whole byte budget would evict everything
	// and still not fit; serve it uncached.
	if int64(len(data)) <= c.maxBytes {
		el := c.ll.PushFront(&cacheEntry{key: key, data: data})
		c.items[key] = el
		c.bytes += int64(len(data))
		for (c.bytes > c.maxBytes || c.ll.Len() > c.maxEntries) && c.ll.Len() > 1 {
			c.evictOldestLocked()
		}
	}
	c.mu.Unlock()
	if writeDisk {
		c.diskPut(key, data)
	}
}

func (c *Cache) evictOldestLocked() {
	el := c.ll.Back()
	if el == nil {
		return
	}
	e := el.Value.(*cacheEntry)
	c.ll.Remove(el)
	delete(c.items, e.key)
	c.bytes -= int64(len(e.data))
	c.evictions.Add(1)
}

// Len returns the in-memory entry count.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Bytes returns the in-memory payload byte total.
func (c *Cache) Bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

// Evictions returns how many in-memory entries the caps pushed out.
func (c *Cache) Evictions() uint64 { return c.evictions.Load() }

// DiskHits returns how many Gets were answered by the disk tier.
func (c *Cache) DiskHits() uint64 { return c.diskHits.Load() }

// DiskRejects returns how many on-disk entries failed validation and were
// discarded.
func (c *Cache) DiskRejects() uint64 { return c.diskRejects.Load() }

// Disk tier. Entry format: one header line
//
//	meshsimdcache1 <sha256 hex> <payload length>\n
//
// followed by the raw payload. The checksum makes torn writes, truncation
// and bit rot all collapse into "recompute".

const diskMagic = "meshsimdcache1"

// safeKey reports whether key is usable as a file name — the hex hashes
// the server produces always are; anything else stays memory-only.
func safeKey(key string) bool {
	if len(key) < 8 || len(key) > 128 {
		return false
	}
	for _, r := range key {
		if !(r >= '0' && r <= '9' || r >= 'a' && r <= 'f') {
			return false
		}
	}
	return true
}

func (c *Cache) diskPath(key string) string {
	return filepath.Join(c.dir, key+".entry")
}

func (c *Cache) diskPut(key string, data []byte) {
	if c.dir == "" || !safeKey(key) {
		return
	}
	sum := sha256.Sum256(data)
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "%s %s %d\n", diskMagic, hex.EncodeToString(sum[:]), len(data))
	buf.Write(data)
	// Atomic publish: a reader (or a crash) never observes a half-written
	// entry without the checksum catching it, but rename makes even the
	// benign torn-file window impossible.
	staged, err := atomicfile.Stage(c.diskPath(key), buf.Bytes())
	if err != nil {
		return
	}
	c.diskMu.Lock()
	defer c.diskMu.Unlock()
	_, err = os.Lstat(c.diskPath(key))
	replaces := err == nil
	if staged.Commit() != nil {
		return
	}
	if !replaces {
		c.diskCount++
	}
	if c.diskCount > c.maxEntries {
		c.diskPruneLocked()
	}
}

func (c *Cache) diskGet(key string) ([]byte, bool) {
	if c.dir == "" || !safeKey(key) {
		return nil, false
	}
	raw, err := os.ReadFile(c.diskPath(key))
	if err != nil {
		return nil, false
	}
	data, ok := decodeDiskEntry(raw)
	if !ok {
		c.diskRejects.Add(1)
		c.diskMu.Lock()
		if os.Remove(c.diskPath(key)) == nil {
			c.diskCount--
		}
		c.diskMu.Unlock()
		return nil, false
	}
	// Touch the entry so diskPrune's mtime ordering is true LRU — without
	// this, eviction would be write-order FIFO and frequently-hit entries
	// would be pruned before cold ones.
	now := time.Now()
	os.Chtimes(c.diskPath(key), now, now)
	return data, true
}

// decodeDiskEntry validates the header, length and checksum of one disk
// entry.
func decodeDiskEntry(raw []byte) ([]byte, bool) {
	rd := bufio.NewReader(bytes.NewReader(raw))
	header, err := rd.ReadString('\n')
	if err != nil {
		return nil, false
	}
	fields := strings.Fields(strings.TrimSuffix(header, "\n"))
	if len(fields) != 3 || fields[0] != diskMagic {
		return nil, false
	}
	wantSum, err := hex.DecodeString(fields[1])
	if err != nil || len(wantSum) != sha256.Size {
		return nil, false
	}
	wantLen, err := strconv.Atoi(fields[2])
	if err != nil || wantLen < 0 {
		return nil, false
	}
	payload := raw[len(header):]
	if len(payload) != wantLen {
		return nil, false
	}
	sum := sha256.Sum256(payload)
	if !bytes.Equal(sum[:], wantSum) {
		return nil, false
	}
	return payload, true
}

// diskPruneLocked scans the cache directory, drops the oldest entries
// beyond the entry cap (by modification time) and resets diskCount to what
// it found. diskPut calls it only when diskCount has passed the cap, so a
// put costs a directory scan once the tier is full and never before; files
// are stat'ed only when some must go. Another process writing the same
// directory makes diskCount an undercount until this cache's own puts
// carry it over the cap and the scan corrects it.
func (c *Cache) diskPruneLocked() {
	c.diskScans++
	entries, err := os.ReadDir(c.dir)
	if err != nil {
		return
	}
	n := 0
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".entry") {
			entries[n] = e
			n++
		}
	}
	entries = entries[:n]
	c.diskCount = n
	if n <= c.maxEntries {
		return
	}
	type aged struct {
		name string
		mod  int64
	}
	files := make([]aged, 0, n)
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			c.diskCount-- // gone since ReadDir
			continue
		}
		files = append(files, aged{e.Name(), info.ModTime().UnixNano()})
	}
	sort.Slice(files, func(i, j int) bool { return files[i].mod < files[j].mod })
	for _, f := range files[:max(0, len(files)-c.maxEntries)] {
		if os.Remove(filepath.Join(c.dir, f.name)) == nil {
			c.diskCount--
		}
	}
}
