package store

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"omos/internal/fault"
	"omos/internal/lebin"
)

// On-disk layout under the root directory:
//
//	<root>/<key>.img        one encoded Record per cache key
//	<root>/index            key -> {last-use rank, size, envelope + head}
//	<root>/quarantine/      blobs that failed validation, kept for autopsy
//
// Blobs are written atomically (temp file + rename) so a crash
// mid-write leaves at worst a stray *.tmp file, never a truncated
// blob under a live name.  The index is advisory: a missing or stale
// index is rebuilt from the blobs (with unknown recency), so deleting
// it never loses data, only LRU order and the heads below.
//
// The index file is written whole by Flush, and only when a row would
// differ from the file on disk: magic, Version, a row count, the rows
// in key order, and a CRC-32 of everything before it.
// Each row copies its blob's envelope and head — what DecodeHead
// needs — so a restart attaches every record from one read of the
// index instead of an open, read and close per blob.  The index is a
// cache of the blobs, never their replacement.  A row's head is served
// only when the index's checksum holds, the blob is the size the row
// records, and the blob was last modified strictly before the index
// file was: a blob written after the last Flush — a Put the index
// never saw, an edit in place — is read from disk.  A row that is
// wrong all the same (the clock stepped back, a Put raced the Flush)
// names a head sum its blob's body no longer carries; the server
// refuses that body on first use and rebuilds the image, so a wrong
// row costs a rebuild, never a wrong image.
//
// A blob that fails decoding or validation is *quarantined* — moved
// into <root>/quarantine/ rather than deleted — so the corrupt bytes
// survive for diagnosis while the live store degrades gracefully: the
// key reads as absent and the server rebuilds the image from source.

// blobExt is the blob file suffix.
const blobExt = ".img"

// quarantineDir is the subdirectory corrupt blobs are moved into.
const quarantineDir = "quarantine"

// indexName is the index file's name under the root directory.
const indexName = "index"

// indexMagic identifies the index file.  It changed when rows began
// to carry heads, so an index an older build wrote reads as absent.
var indexMagic = [4]byte{'O', 'M', 'I', 'H'}

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
	// IndexHeads counts heads GetHead served from the index file
	// rather than from their blobs.
	IndexHeads uint64

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
	// indexed: the index file on disk holds this blob's head in a row
	// Open would trust, so Flush copies the head from there; rank is
	// the recency that row records.
	indexed bool
	rank    uint64
	// head is that row's head, held from Open until GetHead serves it
	// or ForgetHeads drops it.
	head []byte
}

// Store is a persistent content-addressed blob store with LRU
// bookkeeping.  It is safe for concurrent use.
type Store struct {
	mu       sync.Mutex
	dir      string
	maxBytes uint64 // 0 = unbounded
	index    map[string]*entry
	// indexRows is how many rows the index file on disk holds, as
	// Open read it or Flush last wrote it; -1 when Open found none it
	// could read.
	indexRows int
	seq       uint64
	stats     Stats
	closed    bool
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
// sequences from the index file when it is present and parseable, and
// holding each head its row may serve (see the layout above).
func (s *Store) scan() error {
	rows, written, ierr := s.readIndexFile()
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
		if row := findRow(rows, key); row != nil {
			e.lastUse = row.lastUse
			if e.lastUse > s.seq {
				s.seq = e.lastUse
			}
			if ierr == nil && row.size == e.size && len(row.head) > 0 && info.ModTime().Before(written) {
				e.indexed, e.head, e.rank = true, row.head, row.lastUse
			}
		}
		s.index[key] = e
		s.stats.Bytes += e.size
	}
	s.indexRows = -1
	if ierr == nil {
		s.indexRows = len(rows)
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

// GetHead returns the envelope and head of the blob stored under key —
// what DecodeHead needs.  The head comes from the index file when Open
// found a row it may serve (see the layout above), and is forgotten
// once served; otherwise from the blob, with one ReadAt of at most
// headRead bytes and a second only when the head is longer than the
// first read held.  Either way it passes through the store.read fault
// site once, like Get, but it is not a Load and leaves LRU order alone:
// attaching a record is not using it.  ok is false when the key is
// absent; err reports I/O trouble.
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
	s.mu.Lock()
	if e := s.index[key]; e != nil && e.head != nil {
		b, e.head = e.head, nil
		s.stats.IndexHeads++
	}
	s.mu.Unlock()
	if b == nil {
		if b, err = readBlobHead(path); err != nil {
			if os.IsNotExist(err) {
				s.drop(key, false)
				return nil, false, nil
			}
			return nil, false, fmt.Errorf("store: get head %s: %w", key, err)
		}
	}
	return s.faults.Corrupt(fault.SiteStoreRead, b), true, nil
}

// readBlobHead reads the envelope and head of the blob at path.
func readBlobHead(path string) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	// The first read lands on the stack; only the head is kept.
	var first [headRead]byte
	n, err := f.ReadAt(first[:], 0)
	if err != nil && err != io.EOF {
		return nil, err
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
	b := make([]byte, need)
	copy(b, first[:n])
	if need > n {
		if _, err := f.ReadAt(b[n:], int64(n)); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// ForgetHeads drops every head the index file supplied that GetHead
// has not served: AttachStore calls it when it is done, so the store
// holds no head past the attach.  Those keys' heads are then read from
// their blobs.
func (s *Store) ForgetHeads() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, e := range s.index {
		e.head = nil
	}
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
	dst := filepath.Join(qdir, key+blobExt)
	moved, fresh := false, false
	if err := os.MkdirAll(qdir, 0o755); err == nil {
		// A key quarantined before keeps one file there, and counts once.
		_, err := os.Lstat(dst)
		fresh = errors.Is(err, fs.ErrNotExist)
		moved = os.Rename(path, dst) == nil
	}
	if !moved {
		os.Remove(path)
		return
	}
	if fresh {
		s.mu.Lock()
		s.stats.Quarantined++
		s.mu.Unlock()
	}
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

// Flush writes the index file atomically: every blob's size, recency
// and head.  Blob writes are already durable; Flush persists recency,
// so the next boot evicts in the right order, and the heads a restart
// attaches from.  A head the index file already holds in a trusted row
// is copied from it, in one read of the file; only a blob written or
// distrusted since Open has its head read from the blob.  When every
// row would come out as the file already has it — same keys, sizes
// and LRU order, every head trusted — the file is left as it is.
func (s *Store) Flush() error {
	s.mu.Lock()
	keys := make([]string, 0, len(s.index))
	for k := range s.index {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	ents := make([]entry, len(keys))
	held := make([]*entry, len(keys))
	anyIndexed := false
	for i, k := range keys {
		held[i] = s.index[k]
		ents[i] = *held[i]
		anyIndexed = anyIndexed || ents[i].indexed
	}
	unchanged := s.indexRows == len(keys)
	s.mu.Unlock()

	// Recency is written as a rank, 1 for the least recently used key
	// of known recency (0 stays unknown), so an index whose LRU order
	// did not change reads the same as the file already on disk.
	byUse := make([]int, len(keys))
	for i := range byUse {
		byUse[i] = i
	}
	sort.SliceStable(byUse, func(a, b int) bool { return ents[byUse[a]].lastUse < ents[byUse[b]].lastUse })
	rank := uint64(0)
	for _, i := range byUse {
		if ents[i].lastUse > 0 {
			rank++
			ents[i].lastUse = rank
		}
	}
	for i := range ents {
		unchanged = unchanged && ents[i].indexed && ents[i].rank == ents[i].lastUse
	}
	if unchanged {
		// Every key has a trusted row in the file on disk, with this
		// size and rank, and the file has no other row: rewriting it
		// would cost a read, a write and a rename for the same bytes.
		return nil
	}

	var prev []indexRow
	if anyIndexed {
		if rows, _, err := s.readIndexFile(); err == nil {
			prev = rows
		}
	}
	heads := make([][]byte, len(keys))
	size := 4 + 4 + 4 + 4
	for i, k := range keys {
		if ents[i].indexed {
			if row := findRow(prev, k); row != nil && row.size == ents[i].size {
				heads[i] = row.head
			}
		}
		if heads[i] == nil {
			// A head that cannot be read is written empty: that row
			// serves nothing, and the next Open reads the blob.
			heads[i], _ = readBlobHead(filepath.Join(s.dir, k+blobExt))
		}
		size += 4 + len(k) + 8 + 8 + 4 + len(heads[i])
	}
	w := make(lebin.Writer, 0, size)
	w.Raw(indexMagic[:])
	w.U32(Version)
	w.U32(uint32(len(keys)))
	for i, k := range keys {
		w.Str(k)
		w.U64(ents[i].lastUse)
		w.U64(ents[i].size)
		w.Bytes(heads[i])
	}
	w.U32(crc32.ChecksumIEEE(w))

	tmp, err := os.CreateTemp(s.dir, indexName+".*.tmp")
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
	if err := os.Rename(tmp.Name(), filepath.Join(s.dir, indexName)); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: flush: %w", err)
	}
	// The file on disk now holds each of these blobs' heads; a key Put
	// since the snapshot has a new entry, which stays unindexed.
	s.mu.Lock()
	for i, k := range keys {
		if s.index[k] == held[i] && len(heads[i]) > 0 {
			held[i].indexed, held[i].rank = true, ents[i].lastUse
		}
	}
	s.indexRows = len(keys)
	s.mu.Unlock()
	return nil
}

// indexRow is one row of the index file.  key and head alias the
// file's bytes.
type indexRow struct {
	key           []byte
	lastUse, size uint64
	head          []byte
}

// findRow returns the row of rows (in key order) for key, nil when
// there is none.
func findRow(rows []indexRow, key string) *indexRow {
	lo, hi := 0, len(rows)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if string(rows[m].key) < key {
			lo = m + 1
		} else {
			hi = m
		}
	}
	if lo < len(rows) && string(rows[lo].key) == key {
		return &rows[lo]
	}
	return nil
}

// readIndexFile reads the index file's rows and the time the file was
// last written.  The index is advisory, so a missing one yields no rows
// and a malformed one the rows that parsed before the damage, with the
// error: their recency may still order the LRU, but no head of theirs
// is served.
func (s *Store) readIndexFile() (rows []indexRow, written time.Time, err error) {
	f, err := os.Open(filepath.Join(s.dir, indexName))
	if err != nil {
		return nil, written, err
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return nil, written, err
	}
	b := make([]byte, info.Size())
	if _, err := io.ReadFull(f, b); err != nil {
		return nil, written, err
	}
	rows, err = parseIndex(b)
	return rows, info.ModTime(), err
}

// parseIndex decodes the bytes Flush wrote into rows in key order,
// aliasing b.  Rows out of key order, trailing bytes or a checksum
// mismatch are errors, as is anything lebin.Reader refuses; the rows
// parsed before the error come back with it.
func parseIndex(b []byte) ([]indexRow, error) {
	r := lebin.NewReader(b)
	if magic := r.Raw(4); !bytes.Equal(magic, indexMagic[:]) {
		return nil, fmt.Errorf("store: bad index magic %q", magic)
	}
	if ver := r.U32(); r.Err() == nil && ver != Version {
		return nil, fmt.Errorf("store: unsupported index version %d", ver)
	}
	n := r.Count(minIndexBytes)
	rows := make([]indexRow, 0, n)
	for ; n > 0; n-- {
		row := indexRow{key: r.Span(), lastUse: r.U64(), size: r.U64(), head: r.Span()}
		if r.Err() != nil {
			break
		}
		if len(rows) > 0 && string(row.key) <= string(rows[len(rows)-1].key) {
			r.Fail(fmt.Errorf("store: index row %q out of key order", row.key))
			break
		}
		rows = append(rows, row)
	}
	body := len(b) - r.Rest()
	sum := r.U32()
	if r.Err() == nil && r.Rest() != 0 {
		r.Fail(fmt.Errorf("store: %d trailing index bytes", r.Rest()))
	}
	if r.Err() == nil && crc32.ChecksumIEEE(b[:body]) != sum {
		r.Fail(fmt.Errorf("store: index checksum mismatch"))
	}
	return rows, r.Err()
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
