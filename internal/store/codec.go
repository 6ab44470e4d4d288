// Package store is the persistent tier of the OMOS image cache: a
// content-addressed blob store that keeps bound, relocated images
// across daemon restarts.
//
// The paper's central mechanism — caching link results in a
// persistent server — only survives as long as the server process
// does.  This package extends the cache's lifetime past the process:
// each cached image is serialized (segments, bound symbols,
// branch-table slots, placement) under its m-graph content key, so a
// restarted daemon reconstructs its shared frames from disk instead
// of relinking.  Corrupt or stale entries are detected by a versioned
// header and checksums and rejected, never loaded.
package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"

	"omos/internal/lebin"
)

// Codec layout (all integers little-endian):
//
//	magic    [4]byte "OMS1"
//	version  u32
//	headLen  u32
//	headSum  [32]byte  sha256 of the head
//	head     headLen bytes: the record type, the head's fields (see
//	         writeHead), then bodyLen u64 and bodySum [32]byte, the
//	         sha256 of the body
//	body     bodyLen bytes: every other field (see writeBody)
//
// The head is what a restarted server reads of every record at attach
// — identity, placement, library keys, the resolution state — and the
// body, which holds the segment bytes, what it reads when the image is
// first used.  headSum covers bodySum, so the 32 bytes at offset 12
// still identify the whole blob (pins carry them), and a reader that
// holds only the head already knows what the body must hash to.  Epoch
// records are head-only: their body is empty.
//
// A decoder that sees a wrong magic, an unknown version, a length
// that disagrees with the blob, or a checksum mismatch rejects the
// entry; the server then rebuilds the image from its m-graph, which
// is always safe.

// Magic identifies a serialized image record.
var Magic = [4]byte{'O', 'M', 'S', '1'}

// Version is the one codec version this package reads and writes; bump
// on layout change so blobs in any other layout are rejected as stale
// (quarantined, then rebuilt from the m-graph) rather than misparsed.
// The head leads with a record-type byte so the store can hold more
// than one kind of record: type 0 is a cached image, type 1 is a
// live-upgrade epoch record (the write-ahead transaction state of an
// in-flight library upgrade).
const Version = 5

// Record-type bytes leading every head.
const (
	recImage = uint8(0)
	recEpoch = uint8(1)
)

// Epoch states persisted in an EpochRecord.  An active epoch found at
// warm boot rolls back (it never reached commit); a committing epoch
// is a durable intent and is redone.
const (
	EpochActive     = uint8(1)
	EpochCommitting = uint8(2)
)

// EpochLib is one staged definition of a live-upgrade epoch.
type EpochLib struct {
	Path     string
	OldSrc   string
	NewSrc   string
	IsLib    bool
	HadPrior bool
}

// EpochRecord is the durable state of a live-upgrade epoch: which
// paths are staged with what sources, how wide the canary is, and how
// far the transaction got.
type EpochRecord struct {
	ID        string
	State     uint8
	CanaryPct uint32
	Verdict   string
	Libs      []EpochLib
}

const (
	// headerSize is the envelope ahead of the head.
	headerSize = 4 + 4 + 4 + sha256.Size
	// trailerSize is the body's length and checksum that close every
	// head.
	trailerSize = 8 + sha256.Size
)

// Smallest encodings of one element of each list (empty strings and
// data), the bound lebin.Reader.Count holds a claimed count to.
const (
	minSymBytes      = 4 + 8 + 8 + 1 + 1
	minSegBytes      = 4 + 8 + 8 + 1 + 4
	minBTSlotBytes   = 4 + 8
	minLibKeyBytes   = 4
	minPatchBytes    = 8 + 8 + 1
	minBindingBytes  = 4 + 4 + 4 + 4 + 8
	minPinBytes      = 4 + 4 + 4
	minEpochLibBytes = 4 + 4 + 4 + 1
	minIndexBytes    = 4 + 8
)

// Seg is a serialized image segment (shared read-only frames or a
// per-client writable template).
type Seg struct {
	Name    string
	Addr    uint64
	MemSize uint64
	Perm    uint8
	Data    []byte
}

// Sym is one bound symbol: name, absolute address, size, and the
// link-level kind byte (func/data; 0xff when the kind is unknown).
// Seg is the segment class the symbol's value lives in ('T'/'D'/'X',
// link.SegText etc.).
type Sym struct {
	Name string
	Addr uint64
	Size uint64
	Kind uint8
	Seg  uint8
}

// Patch is one recorded 8-byte patch site (link.AbsPatch/RelPatch):
// the absolute site address, the stored value (absolute patches
// only), and the segment class of the patch target.
type Patch struct {
	Site  uint64
	Value uint64
	Seg   uint8
}

// KindNone marks a symbol whose link kind was not recorded.
const KindNone = uint8(0xff)

// Binding is one persisted symbol resolution: the symbol, the
// namespace path and content key of its definer, the definer's
// position in the image's library list, and the address bound at
// resolution time.
type Binding struct {
	Symbol  string
	Definer string
	DefKey  string
	LibIdx  uint32
	Addr    uint64
}

// LibPin is one pinned library identity: the cache key the image
// linked against, its placement-independent content key, and the
// store blob checksum at pin time (empty if the library was never
// persisted).
type LibPin struct {
	LibKey     string
	ContentKey string
	Checksum   string
}

// Record is the serializable form of one cached instance.  It carries
// everything the server needs to reconstruct the image without
// relinking: segment bytes, the bound symbol table, branch-table
// slots, the solver placement to re-reserve, and the keys of the
// library instances it was linked against.
type Record struct {
	// Key is the cache key (content hash + placement digest) the blob
	// is stored under.
	Key string
	// Name is the image's display name (e.g. "lib:/lib/libc").
	Name string

	// SolverKey plus the bases/sizes reproduce the constraint-solver
	// placement on warm boot, so re-instantiation resolves to the same
	// addresses and therefore the same cache key.
	SolverKey string
	TextBase  uint64
	TextSize  uint64
	DataBase  uint64
	DataSize  uint64

	// Entry is the image entry point (zero for libraries).
	Entry uint64
	Syms  []Sym

	// NumRelocs/ExternBinds/ResText/ResData/ResBSS preserve the link
	// result's accounting so stats and cost estimates survive reload.
	NumRelocs   uint64
	ExternBinds uint64
	ResTextSize uint64
	ResDataSize uint64
	ResBSSSize  uint64

	// ROSegs are the shared read-only segments; RWSegs the pristine
	// writable templates copied per client.
	ROSegs []Seg
	RWSegs []Seg

	// BTSlots are the branch-table slot addresses for upward
	// references (§4.1 lib-branch-table libraries).
	BTSlots []Sym

	// LibKeys are the cache keys of the library instances this image
	// links against; they must be loadable for this record to be used.
	LibKeys []string

	// The rebase metadata: the placement-independent content key
	// (empty marks the reconstructed instance as not rebaseable), the
	// link result's segment bases, the entry point's segment class,
	// and the recorded patch sites.
	ContentKey  string
	ResTextBase uint64
	ResDataBase uint64
	EntrySeg    uint8
	AbsPatches  []Patch
	RelPatches  []Patch

	// The stable-resolution state.  BindKey is the image's resolution
	// identity; Gen the namespace generation the binding table was
	// recorded under; Bindings the symbol -> definer table replayed at
	// warm resolution; Pins the library identities verified before the
	// instance is trusted.
	BindKey  string
	Gen      uint64
	Bindings []Binding
	Pins     []LibPin
}

// Head is an image record's head, what a restarted server reads of
// every record at attach.  Record holds only the head's fields — Key,
// Name, SolverKey, the four placement fields, ContentKey, LibKeys,
// BindKey, Gen, Bindings, Pins — and leaves the body's zero.  Sum is
// the head's checksum, which covers the body's: the whole blob's
// identity, the value pins carry.
type Head struct {
	*Record
	Sum [sha256.Size]byte
}

// Encode serializes a record with the versioned header and checksums.
func Encode(rec *Record) ([]byte, error) {
	if rec.Key == "" {
		return nil, fmt.Errorf("store: encode: empty key")
	}
	var head, body lebin.Writer
	writeHead(&head, rec)
	writeBody(&body, rec)
	return seal(head, body), nil
}

// seal closes a head with the body's length and checksum and wraps
// both in the versioned envelope, which checksums the head.
func seal(head, body lebin.Writer) []byte {
	bodySum := sha256.Sum256(body)
	head.U64(uint64(len(body)))
	head.Raw(bodySum[:])
	headSum := sha256.Sum256(head)
	w := make(lebin.Writer, 0, headerSize+len(head)+len(body))
	w.Raw(Magic[:])
	w.U32(Version)
	w.U32(uint32(len(head)))
	w.Raw(headSum[:])
	w.Raw(head)
	w.Raw(body)
	return w
}

// EncodeEpoch serializes a live-upgrade epoch record (head only).
func EncodeEpoch(rec *EpochRecord) ([]byte, error) {
	if rec.ID == "" {
		return nil, fmt.Errorf("store: encode epoch: empty id")
	}
	var w lebin.Writer
	w.U8(recEpoch)
	w.Str(rec.ID)
	w.U8(rec.State)
	w.U32(rec.CanaryPct)
	w.Str(rec.Verdict)
	w.U32(uint32(len(rec.Libs)))
	for _, l := range rec.Libs {
		w.Str(l.Path)
		w.Str(l.OldSrc)
		w.Str(l.NewSrc)
		flags := uint8(0)
		if l.IsLib {
			flags |= 1
		}
		if l.HadPrior {
			flags |= 2
		}
		w.U8(flags)
	}
	return seal(w, nil), nil
}

func writeHead(w *lebin.Writer, rec *Record) {
	w.U8(recImage)
	w.Str(rec.Key)
	w.Str(rec.Name)
	w.Str(rec.SolverKey)
	w.U64(rec.TextBase)
	w.U64(rec.TextSize)
	w.U64(rec.DataBase)
	w.U64(rec.DataSize)
	w.Str(rec.ContentKey)
	w.U32(uint32(len(rec.LibKeys)))
	for _, k := range rec.LibKeys {
		w.Str(k)
	}
	w.Str(rec.BindKey)
	w.U64(rec.Gen)
	w.U32(uint32(len(rec.Bindings)))
	for _, b := range rec.Bindings {
		w.Str(b.Symbol)
		w.Str(b.Definer)
		w.Str(b.DefKey)
		w.U32(b.LibIdx)
		w.U64(b.Addr)
	}
	w.U32(uint32(len(rec.Pins)))
	for _, p := range rec.Pins {
		w.Str(p.LibKey)
		w.Str(p.ContentKey)
		w.Str(p.Checksum)
	}
}

func writeBody(w *lebin.Writer, rec *Record) {
	w.U64(rec.Entry)
	w.U32(uint32(len(rec.Syms)))
	for _, s := range rec.Syms {
		w.Str(s.Name)
		w.U64(s.Addr)
		w.U64(s.Size)
		w.U8(s.Kind)
		w.U8(s.Seg)
	}
	w.U64(rec.NumRelocs)
	w.U64(rec.ExternBinds)
	w.U64(rec.ResTextSize)
	w.U64(rec.ResDataSize)
	w.U64(rec.ResBSSSize)
	writeSegs(w, rec.ROSegs)
	writeSegs(w, rec.RWSegs)
	w.U32(uint32(len(rec.BTSlots)))
	for _, s := range rec.BTSlots {
		w.Str(s.Name)
		w.U64(s.Addr)
	}
	w.U64(rec.ResTextBase)
	w.U64(rec.ResDataBase)
	w.U8(rec.EntrySeg)
	writePatches(w, rec.AbsPatches)
	writePatches(w, rec.RelPatches)
}

func writePatches(w *lebin.Writer, ps []Patch) {
	w.U32(uint32(len(ps)))
	for _, p := range ps {
		w.U64(p.Site)
		w.U64(p.Value)
		w.U8(p.Seg)
	}
}

func writeSegs(w *lebin.Writer, segs []Seg) {
	w.U32(uint32(len(segs)))
	for _, s := range segs {
		w.Str(s.Name)
		w.U64(s.Addr)
		w.U64(s.MemSize)
		w.U8(s.Perm)
		w.Bytes(s.Data)
	}
}

// headSpan is how many leading bytes of a blob hold its envelope and
// head, judged from the first bytes (headerSize while those are fewer
// than the envelope).
func headSpan(b []byte) int {
	if len(b) < headerSize {
		return headerSize
	}
	return headerSize + int(binary.LittleEndian.Uint32(b[8:12]))
}

// envelope checks the envelope and the head's checksum and returns the
// head (trailer included), the bytes after it, and the head checksum.
// b may end anywhere after the head; whether a body must follow is the
// caller's to check.
func envelope(b []byte) (head, rest []byte, sum [sha256.Size]byte, err error) {
	if len(b) < headerSize {
		return nil, nil, sum, fmt.Errorf("store: blob too short (%d bytes)", len(b))
	}
	r := lebin.NewReader(b)
	if magic := r.Raw(4); !bytes.Equal(magic, Magic[:]) {
		return nil, nil, sum, fmt.Errorf("store: bad magic %q", magic)
	}
	if ver := r.U32(); ver != Version {
		return nil, nil, sum, fmt.Errorf("store: unsupported version %d", ver)
	}
	headLen := r.U32()
	copy(sum[:], r.Raw(sha256.Size))
	if uint64(headLen) > uint64(r.Rest()) {
		return nil, nil, sum, fmt.Errorf("store: implausible head length %d (%d bytes follow)", headLen, r.Rest())
	}
	if headLen < trailerSize {
		return nil, nil, sum, fmt.Errorf("store: head length %d is shorter than its trailer", headLen)
	}
	head = r.Raw(int(headLen))
	if sha256.Sum256(head) != sum {
		return nil, nil, sum, fmt.Errorf("store: head checksum mismatch")
	}
	return head, b[headerSize+len(head):], sum, nil
}

// open checks a whole blob — envelope, head checksum, body length and
// body checksum — and returns the head's fields (trailer stripped) and
// the body.
func open(b []byte) (fields, body []byte, sum [sha256.Size]byte, err error) {
	head, body, sum, err := envelope(b)
	if err != nil {
		return nil, nil, sum, err
	}
	fields, trailer := head[:len(head)-trailerSize], lebin.NewReader(head[len(head)-trailerSize:])
	if n := trailer.U64(); n != uint64(len(body)) {
		return nil, nil, sum, fmt.Errorf("store: body length %d, have %d bytes", n, len(body))
	}
	if got := sha256.Sum256(body); !bytes.Equal(got[:], trailer.Raw(sha256.Size)) {
		return nil, nil, sum, fmt.Errorf("store: body checksum mismatch")
	}
	return fields, body, sum, nil
}

// Verify checks a blob's envelope — magic, version, lengths, and both
// SHA-256 checksums — without decoding any field.  This is the
// scrubber's fast integrity pass: any blob Verify accepts has exactly
// the bytes its writer checksummed (a later Decode can still reject
// it as structurally stale, which is a rebuild, not corruption).
func Verify(b []byte) error {
	_, _, _, err := open(b)
	return err
}

// finish reports a reader's first failure, or the bytes it left over.
func finish(r *lebin.Reader, part string) error {
	if err := r.Err(); err != nil {
		return fmt.Errorf("store: decode %s: %w", part, err)
	}
	if r.Rest() != 0 {
		return fmt.Errorf("store: %d trailing %s bytes", r.Rest(), part)
	}
	return nil
}

// DecodeEpoch parses a live-upgrade epoch record.  Anything else —
// including an image record under the epoch key — is an error the
// caller treats as corrupt.
func DecodeEpoch(b []byte) (*EpochRecord, error) {
	fields, body, _, err := open(b)
	if err != nil {
		return nil, err
	}
	r := lebin.NewReader(fields)
	if t := r.U8(); r.Err() == nil && t != recEpoch {
		return nil, fmt.Errorf("store: record type %d is not an epoch", t)
	}
	if len(body) != 0 {
		return nil, fmt.Errorf("store: epoch record with a %d-byte body", len(body))
	}
	rec := &EpochRecord{}
	rec.ID = r.Str()
	rec.State = r.U8()
	rec.CanaryPct = r.U32()
	rec.Verdict = r.Str()
	for n := r.Count(minEpochLibBytes); n > 0 && r.Err() == nil; n-- {
		var l EpochLib
		l.Path = r.Str()
		l.OldSrc = r.Str()
		l.NewSrc = r.Str()
		flags := r.U8()
		l.IsLib = flags&1 != 0
		l.HadPrior = flags&2 != 0
		rec.Libs = append(rec.Libs, l)
	}
	if err := finish(r, "epoch"); err != nil {
		return nil, err
	}
	if rec.ID == "" {
		return nil, fmt.Errorf("store: decode epoch: empty id")
	}
	if rec.State != EpochActive && rec.State != EpochCommitting {
		return nil, fmt.Errorf("store: decode epoch: unknown state %d", rec.State)
	}
	return rec, nil
}

// DecodeHead parses an image record's head from the leading bytes of
// its blob (Store.GetHead's; the whole blob does too): the envelope and
// head checksum are verified, the body is neither read nor checked.
func DecodeHead(b []byte) (*Head, error) {
	head, _, sum, err := envelope(b)
	if err != nil {
		return nil, err
	}
	rec, err := readHead(head[:len(head)-trailerSize])
	if err != nil {
		return nil, err
	}
	return &Head{Record: rec, Sum: sum}, nil
}

// Decode parses and verifies a serialized record, head and body.  Any
// structural problem — bad magic, unknown version, truncation, either
// checksum mismatching, implausible counts, trailing bytes — is an
// error; the caller treats the entry as corrupt and rebuilds.
func Decode(b []byte) (*Record, error) {
	fields, body, _, err := open(b)
	if err != nil {
		return nil, err
	}
	rec, err := readHead(fields)
	if err != nil {
		return nil, err
	}
	r := lebin.NewReader(body)
	rec.Entry = r.U64()
	nsyms := r.Count(minSymBytes)
	rec.Syms = make([]Sym, 0, nsyms)
	for i := 0; i < nsyms && r.Err() == nil; i++ {
		var s Sym
		s.Name = r.Str()
		s.Addr = r.U64()
		s.Size = r.U64()
		s.Kind = r.U8()
		s.Seg = r.U8()
		rec.Syms = append(rec.Syms, s)
	}
	rec.NumRelocs = r.U64()
	rec.ExternBinds = r.U64()
	rec.ResTextSize = r.U64()
	rec.ResDataSize = r.U64()
	rec.ResBSSSize = r.U64()
	rec.ROSegs = readSegs(r)
	rec.RWSegs = readSegs(r)
	nbt := r.Count(minBTSlotBytes)
	rec.BTSlots = make([]Sym, 0, nbt)
	for i := 0; i < nbt && r.Err() == nil; i++ {
		var s Sym
		s.Name = r.Str()
		s.Addr = r.U64()
		rec.BTSlots = append(rec.BTSlots, s)
	}
	rec.ResTextBase = r.U64()
	rec.ResDataBase = r.U64()
	rec.EntrySeg = r.U8()
	rec.AbsPatches = readPatches(r)
	rec.RelPatches = readPatches(r)
	if err := finish(r, "body"); err != nil {
		return nil, err
	}
	return rec, nil
}

// readHead parses an image head's fields into a record whose body
// fields stay zero.
func readHead(fields []byte) (*Record, error) {
	r := lebin.NewReader(fields)
	if t := r.U8(); r.Err() == nil && t != recImage {
		return nil, fmt.Errorf("store: record type %d is not an image", t)
	}
	rec := &Record{}
	rec.Key = r.Str()
	rec.Name = r.Str()
	rec.SolverKey = r.Str()
	rec.TextBase = r.U64()
	rec.TextSize = r.U64()
	rec.DataBase = r.U64()
	rec.DataSize = r.U64()
	rec.ContentKey = r.Str()
	nlibs := r.Count(minLibKeyBytes)
	rec.LibKeys = make([]string, 0, nlibs)
	for i := 0; i < nlibs && r.Err() == nil; i++ {
		rec.LibKeys = append(rec.LibKeys, r.Str())
	}
	rec.BindKey = r.Str()
	rec.Gen = r.U64()
	nbind := r.Count(minBindingBytes)
	if nbind > 0 {
		rec.Bindings = make([]Binding, 0, nbind)
	}
	for i := 0; i < nbind && r.Err() == nil; i++ {
		var bd Binding
		bd.Symbol = r.Str()
		bd.Definer = r.Str()
		bd.DefKey = r.Str()
		bd.LibIdx = r.U32()
		bd.Addr = r.U64()
		// A binding pointing outside the library list is a corrupt
		// record: reject it here so the server quarantines the blob
		// instead of replaying a nonsense resolution.
		if int(bd.LibIdx) >= len(rec.LibKeys) {
			r.Fail(fmt.Errorf("binding %q: library index %d out of range (have %d libraries)",
				bd.Symbol, bd.LibIdx, len(rec.LibKeys)))
		}
		rec.Bindings = append(rec.Bindings, bd)
	}
	npins := r.Count(minPinBytes)
	if npins > 0 {
		rec.Pins = make([]LibPin, 0, npins)
	}
	for i := 0; i < npins && r.Err() == nil; i++ {
		var p LibPin
		p.LibKey = r.Str()
		p.ContentKey = r.Str()
		p.Checksum = r.Str()
		rec.Pins = append(rec.Pins, p)
	}
	if err := finish(r, "head"); err != nil {
		return nil, err
	}
	if rec.Key == "" {
		return nil, fmt.Errorf("store: decode: empty key")
	}
	return rec, nil
}

func readPatches(r *lebin.Reader) []Patch {
	n := r.Count(minPatchBytes)
	if n == 0 {
		return nil
	}
	ps := make([]Patch, 0, n)
	for i := 0; i < n && r.Err() == nil; i++ {
		var p Patch
		p.Site = r.U64()
		p.Value = r.U64()
		p.Seg = r.U8()
		ps = append(ps, p)
	}
	return ps
}

func readSegs(r *lebin.Reader) []Seg {
	n := r.Count(minSegBytes)
	segs := make([]Seg, 0, n)
	for i := 0; i < n && r.Err() == nil; i++ {
		var s Seg
		s.Name = r.Str()
		s.Addr = r.U64()
		s.MemSize = r.U64()
		s.Perm = r.U8()
		s.Data = r.Blob()
		segs = append(segs, s)
	}
	return segs
}
