package store

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"omos/internal/fault"
	"omos/internal/lebin"
)

// On-disk layout under the root directory:
//
//	<root>/<key>.img        one encoded Record per cache key
//	<root>/index            LRU index: key -> {size, last-use sequence}
//	<root>/quarantine/      blobs that failed validation, kept for autopsy
//
// Blobs are written atomically (temp file + rename) so a crash
// mid-write leaves at worst a stray *.tmp file, never a truncated
// blob under a live name.  The index is advisory: a missing or stale
// index is rebuilt from the blobs (with unknown recency), so deleting
// it never loses data, only LRU order.
//
// A blob that fails decoding or validation is *quarantined* — moved
// into <root>/quarantine/ rather than deleted — so the corrupt bytes
// survive for diagnosis while the live store degrades gracefully: the
// key reads as absent and the server rebuilds the image from source.

// blobExt is the blob file suffix.
const blobExt = ".img"

// quarantineDir is the subdirectory corrupt blobs are moved into.
const quarantineDir = "quarantine"

// indexMagic identifies the index file.
var indexMagic = [4]byte{'O', 'M', 'I', 'X'}

// Stats counts store activity.
type Stats struct {
	// Loads counts blobs successfully read back (Get).
	Loads uint64
	// Stores counts blobs written (Put).
	Stores uint64
	// Evictions counts blobs removed by capacity eviction or Delete.
	Evictions uint64
	// CorruptRejects counts blobs the caller reported as corrupt or
	// stale (RejectCorrupt and Quarantine).
	CorruptRejects uint64
	// Quarantined counts blobs moved into the quarantine directory
	// instead of being deleted.
	Quarantined uint64
	// Bytes is the current total size of all blobs.
	Bytes uint64

	// ScrubChecked counts blobs whose checksum the background scrubber
	// re-verified.
	ScrubChecked uint64
	// ScrubQuarantined counts blobs the scrubber quarantined after
	// failing verification twice (also included in Quarantined).
	ScrubQuarantined uint64
	// ScrubOrphans counts stray .tmp files from crashed writes the
	// scrubber swept.
	ScrubOrphans uint64
}

type entry struct {
	size    uint64
	lastUse uint64 // monotone sequence; higher = more recent
}

// Store is a persistent content-addressed blob store with LRU
// bookkeeping.  It is safe for concurrent use.
type Store struct {
	mu       sync.Mutex
	dir      string
	maxBytes uint64 // 0 = unbounded
	index    map[string]*entry
	seq      uint64
	stats    Stats
	closed   bool
	// scrubStop, when non-nil, stops the running background scrubber
	// (see StartScrub); Close closes it.
	scrubStop chan struct{}

	// faults, when non-nil, arms the store.read / store.write /
	// store.rename injection sites.  Install with SetFaults before
	// serving traffic; the Set itself is concurrency-safe.
	faults *fault.Set
}

// SetFaults installs a fault-injection set.  Must be called before
// the store sees traffic (only the rules inside the set may change
// while requests are in flight).
func (s *Store) SetFaults(f *fault.Set) { s.faults = f }

// Open opens (creating if needed) a store rooted at dir.  maxBytes
// bounds the total blob size the store will hold; 0 means unbounded.
// Existing blobs are indexed; LRU order is recovered from the index
// file when present.
func Open(dir string, maxBytes int64) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("store: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: open: %w", err)
	}
	if maxBytes < 0 {
		maxBytes = 0
	}
	s := &Store{
		dir:      dir,
		maxBytes: uint64(maxBytes),
		index:    map[string]*entry{},
	}
	if err := s.scan(); err != nil {
		return nil, err
	}
	return s, nil
}

// scan builds the index from the blobs on disk, merging last-use
// sequences from the index file when it is present and parseable.
func (s *Store) scan() error {
	lru := s.readIndexFile()
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("store: scan: %w", err)
	}
	for _, de := range ents {
		name := de.Name()
		if !strings.HasSuffix(name, blobExt) || de.IsDir() {
			// Stray temp files from a crashed write are garbage; the
			// quarantine directory and index file are left alone.
			if !de.IsDir() && strings.HasSuffix(name, ".tmp") {
				os.Remove(filepath.Join(s.dir, name))
			}
			continue
		}
		info, err := de.Info()
		if err != nil {
			continue
		}
		key := strings.TrimSuffix(name, blobExt)
		e := &entry{size: uint64(info.Size())}
		if seq, ok := lru[key]; ok {
			e.lastUse = seq
			if seq > s.seq {
				s.seq = seq
			}
		}
		s.index[key] = e
		s.stats.Bytes += e.size
	}
	// Blobs quarantined by earlier sessions still count: the health
	// endpoint reports them until an operator clears the directory.
	s.stats.Quarantined = uint64(len(s.QuarantinedKeys()))
	return nil
}

// MaxBytes returns the configured capacity (0 = unbounded).
func (s *Store) MaxBytes() uint64 { return s.maxBytes }

// Stats returns a snapshot of the store counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

func (s *Store) blobPath(key string) (string, error) {
	// Keys are hex content digests; refuse anything that could walk
	// outside the root directory.
	if key == "" || strings.ContainsAny(key, "/\\") || strings.Contains(key, "..") {
		return "", fmt.Errorf("store: invalid key %q", key)
	}
	return filepath.Join(s.dir, key+blobExt), nil
}

// Put atomically writes a blob under key and records it as most
// recently used.  It does not enforce capacity — the server drives
// eviction so it can respect live refcounts; see OverCapacity.
func (s *Store) Put(key string, blob []byte) error {
	path, err := s.blobPath(key)
	if err != nil {
		return err
	}
	if err := s.faults.Fire(fault.SiteStoreWrite); err != nil {
		return fmt.Errorf("store: put %s: %w", key, err)
	}
	tmp, err := os.CreateTemp(s.dir, key+".*.tmp")
	if err != nil {
		return fmt.Errorf("store: put %s: %w", key, err)
	}
	_, werr := tmp.Write(blob)
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		if werr == nil {
			werr = cerr
		}
		return fmt.Errorf("store: put %s: %w", key, werr)
	}
	// A fault here simulates a crash between the temp-file write and
	// the publishing rename: the temp file is deliberately left behind
	// (as a real crash would), and the key never becomes visible.  The
	// next Open sweeps the orphan; warm restart rebuilds the image.
	if err := s.faults.Fire(fault.SiteStoreRename); err != nil {
		return fmt.Errorf("store: put %s: %w", key, err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: put %s: %w", key, err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if old, ok := s.index[key]; ok {
		s.stats.Bytes -= old.size
	}
	s.seq++
	s.index[key] = &entry{size: uint64(len(blob)), lastUse: s.seq}
	s.stats.Bytes += uint64(len(blob))
	s.stats.Stores++
	return nil
}

// Get reads the blob stored under key and marks it used.  ok is false
// when the key is absent; err reports I/O trouble.
func (s *Store) Get(key string) (blob []byte, ok bool, err error) {
	path, err := s.blobPath(key)
	if err != nil {
		return nil, false, err
	}
	s.mu.Lock()
	_, present := s.index[key]
	s.mu.Unlock()
	if !present {
		return nil, false, nil
	}
	if err := s.faults.Fire(fault.SiteStoreRead); err != nil {
		return nil, false, fmt.Errorf("store: get %s: %w", key, err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			s.drop(key, false)
			return nil, false, nil
		}
		return nil, false, fmt.Errorf("store: get %s: %w", key, err)
	}
	b = s.faults.Corrupt(fault.SiteStoreRead, b)
	s.mu.Lock()
	if e, ok := s.index[key]; ok {
		s.seq++
		e.lastUse = s.seq
	}
	s.stats.Loads++
	s.mu.Unlock()
	return b, true, nil
}

// headRead is GetHead's first read: room for the head of a library or
// of a program with a few dozen bindings, so attaching most records is
// one read.  A longer head costs a second.
const headRead = 4 << 10

// GetHead reads the envelope and head of the blob stored under key —
// what DecodeHead needs — with one ReadAt of at most headRead bytes,
// and a second only when the head is longer than the first read held.
// It passes through the store.read fault site like Get, but it is not
// a Load and leaves LRU order alone: attaching a record is not using
// it.  ok is false when the key is absent; err reports I/O trouble.
func (s *Store) GetHead(key string) (b []byte, ok bool, err error) {
	path, err := s.blobPath(key)
	if err != nil {
		return nil, false, err
	}
	if !s.Has(key) {
		return nil, false, nil
	}
	if err := s.faults.Fire(fault.SiteStoreRead); err != nil {
		return nil, false, fmt.Errorf("store: get head %s: %w", key, err)
	}
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			s.drop(key, false)
			return nil, false, nil
		}
		return nil, false, fmt.Errorf("store: get head %s: %w", key, err)
	}
	defer f.Close()
	// The first read lands on the stack; only the head is kept.
	var first [headRead]byte
	n, err := f.ReadAt(first[:], 0)
	if err != nil && err != io.EOF {
		return nil, false, fmt.Errorf("store: get head %s: %w", key, err)
	}
	need := headSpan(first[:n])
	if need > n {
		// A head longer than the first read.  The length it claims is
		// held to the file's size before anything is allocated for it;
		// a claim past the end is left for DecodeHead to refuse.
		if info, err := f.Stat(); err != nil || int64(need) > info.Size() {
			need = n
		}
	}
	b = make([]byte, need)
	copy(b, first[:n])
	if need > n {
		if _, err := f.ReadAt(b[n:], int64(n)); err != nil {
			return nil, false, fmt.Errorf("store: get head %s: %w", key, err)
		}
	}
	return s.faults.Corrupt(fault.SiteStoreRead, b), true, nil
}

// Touch marks key as most recently used (an in-memory cache hit keeps
// the persisted copy warm in LRU order).
func (s *Store) Touch(key string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.index[key]; ok {
		s.seq++
		e.lastUse = s.seq
	}
}

// Delete removes a blob, counting it as an eviction.
func (s *Store) Delete(key string) { s.drop(key, true) }

// RejectCorrupt removes a blob that failed decoding or validation,
// counting it as a corrupt-reject.
func (s *Store) RejectCorrupt(key string) {
	s.mu.Lock()
	s.stats.CorruptRejects++
	s.mu.Unlock()
	s.drop(key, false)
}

// Quarantine moves a blob that failed decoding or validation into
// the quarantine directory instead of deleting it: the key becomes
// absent (so the server rebuilds from source) while the corrupt bytes
// are preserved for autopsy.  If the move fails the blob is removed
// outright — degraded operation must never re-serve bad bytes.
func (s *Store) Quarantine(key string) {
	path, err := s.blobPath(key)
	if err != nil {
		return
	}
	s.mu.Lock()
	s.stats.CorruptRejects++
	if e, ok := s.index[key]; ok {
		s.stats.Bytes -= e.size
		delete(s.index, key)
	}
	s.mu.Unlock()
	qdir := filepath.Join(s.dir, quarantineDir)
	moved := false
	if err := os.MkdirAll(qdir, 0o755); err == nil {
		if err := os.Rename(path, filepath.Join(qdir, key+blobExt)); err == nil {
			moved = true
		}
	}
	if !moved {
		os.Remove(path)
		return
	}
	s.mu.Lock()
	s.stats.Quarantined++
	s.mu.Unlock()
}

// QuarantineDir returns the quarantine directory path (it may not
// exist yet).
func (s *Store) QuarantineDir() string { return filepath.Join(s.dir, quarantineDir) }

// QuarantinedKeys lists the keys currently held in quarantine.
func (s *Store) QuarantinedKeys() []string {
	ents, err := os.ReadDir(filepath.Join(s.dir, quarantineDir))
	if err != nil {
		return nil
	}
	var keys []string
	for _, de := range ents {
		if name := de.Name(); strings.HasSuffix(name, blobExt) && !de.IsDir() {
			keys = append(keys, strings.TrimSuffix(name, blobExt))
		}
	}
	sort.Strings(keys)
	return keys
}

func (s *Store) drop(key string, countEvict bool) {
	path, err := s.blobPath(key)
	if err != nil {
		return
	}
	s.mu.Lock()
	if e, ok := s.index[key]; ok {
		s.stats.Bytes -= e.size
		delete(s.index, key)
		if countEvict {
			s.stats.Evictions++
		}
	}
	s.mu.Unlock()
	os.Remove(path)
}

// Has reports whether key is present.
func (s *Store) Has(key string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.index[key]
	return ok
}

// Len returns the number of stored blobs.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.index)
}

// OverCapacity returns how many bytes the store currently exceeds its
// configured capacity by (0 when unbounded or within bounds).
func (s *Store) OverCapacity() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.maxBytes == 0 || s.stats.Bytes <= s.maxBytes {
		return 0
	}
	return s.stats.Bytes - s.maxBytes
}

// KeysLRU returns all keys ordered least-recently-used first — the
// order eviction should consider victims, and the order a restarted
// server attaches records in.
func (s *Store) KeysLRU() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	keys := make([]string, 0, len(s.index))
	for k := range s.index {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := s.index[keys[i]], s.index[keys[j]]
		if a.lastUse != b.lastUse {
			return a.lastUse < b.lastUse
		}
		return keys[i] < keys[j]
	})
	return keys
}

// Flush writes the LRU index file atomically.  Blob writes are
// already durable; Flush only persists recency so the next boot
// evicts in the right order.
func (s *Store) Flush() error {
	s.mu.Lock()
	var w lebin.Writer
	w.Raw(indexMagic[:])
	w.U32(Version)
	w.U32(uint32(len(s.index)))
	keys := make([]string, 0, len(s.index))
	for k := range s.index {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		w.Str(k)
		w.U64(s.index[k].lastUse)
	}
	s.mu.Unlock()

	tmp, err := os.CreateTemp(s.dir, "index.*.tmp")
	if err != nil {
		return fmt.Errorf("store: flush: %w", err)
	}
	_, werr := tmp.Write(w)
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		if werr == nil {
			werr = cerr
		}
		return fmt.Errorf("store: flush: %w", werr)
	}
	if err := os.Rename(tmp.Name(), filepath.Join(s.dir, "index")); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: flush: %w", err)
	}
	return nil
}

// readIndexFile reads the index file into key -> lastUse.  The index
// is advisory, so a missing one yields nothing and a malformed one what
// parsed before the damage, its error dropped: LRU order is lost,
// nothing else.
func (s *Store) readIndexFile() map[string]uint64 {
	b, err := os.ReadFile(filepath.Join(s.dir, "index"))
	if err != nil {
		return nil
	}
	lru, _ := parseIndex(b)
	return lru
}

// parseIndex decodes the bytes Flush wrote.
func parseIndex(b []byte) (map[string]uint64, error) {
	r := lebin.NewReader(b)
	if magic := r.Raw(4); !bytes.Equal(magic, indexMagic[:]) {
		return nil, fmt.Errorf("store: bad index magic %q", magic)
	}
	if ver := r.U32(); r.Err() == nil && ver != Version {
		return nil, fmt.Errorf("store: unsupported index version %d", ver)
	}
	n := r.Count(minIndexBytes)
	out := make(map[string]uint64, n)
	for ; n > 0; n-- {
		k, seq := r.Str(), r.U64()
		if r.Err() != nil {
			break
		}
		out[k] = seq
	}
	return out, r.Err()
}

// Close stops any background scrubber, flushes the index, and marks
// the store closed.  Blobs written before Close are durable
// regardless.
func (s *Store) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	if s.scrubStop != nil {
		close(s.scrubStop)
		s.scrubStop = nil
	}
	s.mu.Unlock()
	return s.Flush()
}
