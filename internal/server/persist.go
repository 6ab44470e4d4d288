package server

import (
	"bytes"
	"context"
	"encoding/hex"
	"errors"
	"fmt"
	"sort"
	"strings"

	"omos/internal/buildgraph"
	"omos/internal/constraint"
	"omos/internal/fault"
	"omos/internal/image"
	"omos/internal/link"
	"omos/internal/obj"
	"omos/internal/store"
)

// This file is the bridge between the in-memory image cache and the
// persistent store tier: cached instances are serialized through
// store.Record on build (write-through), attached by their heads at
// daemon boot and reconstructed as shared frames on first use (wake),
// and evicted LRU-first when the store exceeds its byte budget.

// AttachStore attaches a persistent store as the backing tier of the
// image cache and attaches every record in it by its head alone: the
// head is checked, its blob identity registered for pins, its solver
// placement re-reserved and its binding table reinstalled, and the
// record is left dormant — no segment read, no frame made — until a
// request, a rebase or a mesh peer first needs the image (wake).
// Instantiations of unchanged meta-objects therefore resolve to the
// same cache keys and are served without a single relink.  A head that
// fails its own checks is quarantined.  Returns the number of records
// attached.
func (s *Server) AttachStore(st *store.Store) int {
	s.cacheMu.Lock()
	s.store = st
	s.cacheMu.Unlock()
	before := s.stats.warmLoaded.Load()
	// Transaction state, not an image; resolved below.
	seen := map[string]bool{epochStoreKey: true}
	// Oldest-first, each record's libraries before it: where two records
	// claim one placement, the older keeps it.  Attaching is best-effort: a panic attaching one record (a decoder
	// bug, an injected fault) skips it — the image rebuilds from source
	// on demand — and must never prevent boot.
	for _, key := range st.KeysLRU() {
		func() {
			defer func() {
				if r := recover(); r != nil {
					s.stats.recovered.Add(1)
				}
			}()
			s.attach(st, key, seen)
		}()
	}
	n := int(s.stats.warmLoaded.Load() - before)
	// A daemon killed mid-upgrade left its epoch record behind: redo a
	// durable commit intent, roll back anything earlier — either way
	// the namespace boots consistent, never torn.
	s.recoverEpoch(st)
	// The byte budget may have shrunk since the blobs were written.
	s.evictForCapacity("")
	return n
}

// attach attaches the record under key by its head, its libraries'
// records first.  A head that cannot be read (gone, an I/O error) is
// skipped and its blob left alone; one that fails its own checks —
// either checksum, the format, the key, the placement — is quarantined.
// A library that is absent or unreadable costs its dependents nothing
// here: they attach all the same, and wake finds out.
func (s *Server) attach(st *store.Store, key string, seen map[string]bool) {
	s.cacheMu.RLock()
	_, cached := s.cache[key]
	s.cacheMu.RUnlock()
	if seen[key] || cached {
		return
	}
	seen[key] = true
	b, ok, err := st.GetHead(key)
	if err != nil || !ok {
		return
	}
	s.kern.ChargeTotalServer(uint64(len(b)) * s.kern.Cost.StoreLoadPerByte)
	h, err := store.DecodeHead(b)
	if err != nil || h.Key != key {
		s.reject(st, key)
		return
	}
	for _, lk := range h.LibKeys {
		s.attach(st, lk, seen)
	}
	s.solverMu.Lock()
	err = s.solver.Restore(h.SolverKey,
		constraint.Placement{TextBase: h.TextBase, DataBase: h.DataBase},
		h.TextSize, h.DataSize)
	s.solverMu.Unlock()
	if err != nil {
		s.reject(st, key)
		return
	}
	// The blob's on-disk identity: images woken or linked after this
	// verify their library pins against it.
	s.setBlobSum(key, hex.EncodeToString(h.Sum[:]))
	s.cacheMu.Lock()
	if s.cache[key] == nil {
		s.dormant[key] = h
		if h.ContentKey != "" {
			s.dormantCK[h.ContentKey] = append(s.dormantCK[h.ContentKey], h)
		}
	}
	libCKs, libsKnown := s.contentKeysLocked(h.LibKeys)
	s.cacheMu.Unlock()
	// Reinstall the persisted binding table, so this session resolves
	// the image with zero symbol searches and the rebind guard and
	// Explain see it from boot.  It needs every library's content key,
	// from the library's head; a table this session already recomputed
	// wins over the stored one.
	if h.BindKey != "" && len(h.Bindings) > 0 && libsKnown {
		tbl := &BindingTable{Image: h.Name, Gen: h.Gen, Resolved: "warm-load", LibKeys: libCKs}
		for _, b := range h.Bindings {
			tbl.Bindings = append(tbl.Bindings, Binding{
				Symbol: b.Symbol, Definer: b.Definer, DefKey: b.DefKey,
				LibIdx: int(b.LibIdx), Addr: b.Addr,
			})
		}
		s.installBindings(h.BindKey, tbl, false)
	}
	s.stats.warmLoaded.Add(1)
}

// contentKeysLocked returns the content keys of the images under keys,
// cached or dormant, and whether every one is present.  Caller holds
// cacheMu.
func (s *Server) contentKeysLocked(keys []string) ([]string, bool) {
	cks := make([]string, len(keys))
	for i, k := range keys {
		if inst := s.cache[k]; inst != nil {
			cks[i] = inst.ContentKey
		} else if h := s.dormant[k]; h != nil {
			cks[i] = h.ContentKey
		} else {
			return nil, false
		}
	}
	return cks, true
}

// reject quarantines the record under key, whose own bytes failed:
// dormant no longer, its blob moved aside, its identity forgotten.
func (s *Server) reject(st *store.Store, key string) {
	s.cacheMu.Lock()
	s.dropDormantLocked(key)
	s.cacheMu.Unlock()
	st.Quarantine(key)
	s.dropBlobSum(key)
}

// dropDormantLocked forgets the dormant record under key, if any.
// Caller holds cacheMu.
func (s *Server) dropDormantLocked(key string) {
	h := s.dormant[key]
	if h == nil {
		return
	}
	delete(s.dormant, key)
	if h.ContentKey != "" {
		unindex(s.dormantCK, h.ContentKey, h)
	}
}

// errNotDormant fails a flight that found nothing to wake.
var errNotDormant = errors.New("server: no dormant record to wake")

// wake turns the dormant record under key into a published instance.
// It reads the body and decodes the record — both checksums verified,
// and the blob must still be the one attached — wakes the record's
// libraries, rebuilds the instance from the record's own segment
// format and verifies its pins.  It returns nil, and the caller builds
// instead, when key is not dormant or cannot be woken: a record whose
// own body, key or pins fail is quarantined; one that could not be
// read, or whose libraries are absent or unreadable, stays dormant.
func (s *Server) wake(key string) *Instance {
	s.cacheMu.RLock()
	h, st := s.dormant[key], s.store
	s.cacheMu.RUnlock()
	if h == nil || st == nil {
		return nil
	}
	blob, ok, err := st.Get(key)
	if err != nil || !ok {
		return nil
	}
	s.kern.ChargeTotalServer(uint64(len(blob)) * s.kern.Cost.StoreLoadPerByte)
	rec, err := store.Decode(blob)
	if err != nil || rec.Key != key || !bytes.Equal(blob[blobCheckSumLo:blobCheckSumHi], h.Sum[:]) {
		s.reject(st, key)
		return nil
	}
	libs := make([]*Instance, len(rec.LibKeys))
	for i, lk := range rec.LibKeys {
		if libs[i] = s.awake(lk); libs[i] == nil {
			return nil
		}
	}
	inst, err := s.instanceFromRecord(rec, libs)
	if err != nil {
		s.reject(st, key)
		return nil
	}
	// Hijack defense on first use: a pinned image whose library
	// identities no longer match (or an injected definer swap at the
	// namespace.hijack site) is quarantined, never served — the caller
	// rebuilds and re-pins from source.
	if err := s.verifyPins(inst); err != nil {
		s.ReleaseInstance(inst)
		s.reject(st, key)
		return nil
	}
	return s.publish(inst)
}

// awake returns the instance under key, cached or woken.  A wake runs
// in the key's flight (buildShared), so concurrent wakers of one record
// read its body once and share one instance; a cached instance is
// returned before that, because buildShared would count it as a cache
// hit and a library or rebase source being looked up is not one.  nil
// when the key is neither cached nor wakeable.
func (s *Server) awake(key string) *Instance {
	s.cacheMu.RLock()
	inst := s.cache[key]
	s.cacheMu.RUnlock()
	if inst != nil {
		return inst
	}
	inst, err := s.buildShared(context.Background(), key, func() (*Instance, error) {
		if inst := s.wake(key); inst != nil {
			return inst, nil
		}
		return nil, errNotDormant
	})
	if err != nil {
		return nil
	}
	return inst
}

// CloseStore flushes and detaches the persistent store.  Safe to call
// when no store is attached.
func (s *Server) CloseStore() error {
	s.cacheMu.Lock()
	st := s.store
	s.store = nil
	s.cacheMu.Unlock()
	if st == nil {
		return nil
	}
	return st.Close()
}

// FlushStore persists the store's LRU index without detaching.
func (s *Server) FlushStore() error {
	s.cacheMu.RLock()
	st := s.store
	s.cacheMu.RUnlock()
	if st == nil {
		return nil
	}
	return st.Flush()
}

// touch marks a cache key as most recently used in both tiers.  The
// in-memory stamp is a per-instance atomic, so cache hits need no
// cache write lock; the store keeps its own lock.
func (s *Server) touch(key string, inst *Instance, st *store.Store) {
	inst.lastUse.Store(s.useSeq.Add(1))
	if st != nil {
		st.Touch(key)
	}
}

// checkpointInstance writes a completed build-graph node's instance
// through to the persistent store, the moment the node finishes —
// independent of whether the enclosing run ever completes.  This is
// what makes partial builds resumable: a daemon killed after K of N
// nodes finds K decodable records at the next warm boot and relinks
// only the missing N-K.  Checkpointing is best-effort: a failed (or
// fault-injected, or panicking) checkpoint costs the next session's
// resume of this node, never the current build.
func (s *Server) checkpointInstance(node *buildgraph.Node, inst *Instance) {
	s.cacheMu.RLock()
	st := s.store
	s.cacheMu.RUnlock()
	if st == nil {
		return
	}
	defer func() {
		if r := recover(); r != nil {
			s.stats.recovered.Add(1)
			s.checkpointed(node, 0, fmt.Errorf("recovered panic: %v", r))
		}
	}()
	var n int
	err := s.faults.Fire(fault.SiteCheckpoint)
	if err == nil {
		n, err = s.persistInstance(st, inst)
	}
	s.checkpointed(node, n, err)
}

// checkpointed counts one checkpoint and records it on its node (a
// checkpoint outside any recorded run still counts).
func (s *Server) checkpointed(node *buildgraph.Node, bytes int, err error) {
	if err != nil {
		s.stats.checkpointsFailed.Add(1)
	} else {
		s.stats.nodesCheckpointed.Add(1)
		s.stats.checkpointBytes.Add(uint64(bytes))
	}
	node.Checkpointed(bytes, err)
}

// persistInstance writes a built instance through to the store,
// returning the encoded size.
func (s *Server) persistInstance(st *store.Store, inst *Instance) (int, error) {
	blob, err := store.Encode(s.recordOf(inst))
	if err != nil {
		return 0, err
	}
	if err := st.Put(inst.Key, blob); err != nil {
		return 0, err
	}
	// Record the blob's envelope checksum: images linked against this
	// instance from here on pin the exact bytes now on disk.
	s.setBlobSum(inst.Key, blobChecksum(blob))
	s.kern.ChargeTotalServer(uint64(len(blob)) * s.kern.Cost.StoreWritePerByte)
	// Capacity enforcement happens in buildShared once this build's
	// flight is deregistered; an in-flight build must not evict the
	// library instances it references.
	return len(blob), nil
}

// blobCheckSumLo/Hi delimit the head checksum inside a store blob's
// envelope (magic + version + headLen precede it).  It covers the
// body's checksum, so it identifies the whole blob.
const (
	blobCheckSumLo = 12
	blobCheckSumHi = 44
)

// blobChecksum extracts the envelope checksum of an encoded blob as
// hex — the on-disk identity pins carry.  Reading it from the bytes
// already in hand (rather than re-reading the store) keeps pin
// bookkeeping off the store's fault surface.
func blobChecksum(blob []byte) string {
	if len(blob) < blobCheckSumHi {
		return ""
	}
	return hex.EncodeToString(blob[blobCheckSumLo:blobCheckSumHi])
}

// recordOf serializes an instance's reconstruction state: segment
// bytes, bound symbols, branch-table slots, placement, library keys,
// and the resolution state — the binding table recorded for the
// image and the library pins to re-verify when it is woken.
func (s *Server) recordOf(inst *Instance) *store.Record {
	rec := &store.Record{
		Key:         inst.Key,
		Name:        inst.Name,
		SolverKey:   inst.place.SolverKey,
		TextBase:    inst.place.TextBase,
		TextSize:    inst.place.TextSize,
		DataBase:    inst.place.DataBase,
		DataSize:    inst.place.DataSize,
		Entry:       inst.Res.Image.Entry,
		NumRelocs:   uint64(inst.Res.NumRelocs),
		ExternBinds: uint64(inst.Res.ExternBinds),
		ResTextSize: inst.Res.TextSize,
		ResDataSize: inst.Res.DataSize,
		ResBSSSize:  inst.Res.BSSSize,
		ContentKey:  inst.ContentKey,
		ResTextBase: inst.Res.TextBase,
		ResDataBase: inst.Res.DataBase,
		EntrySeg:    inst.Res.EntrySeg,
	}
	for _, p := range inst.Res.AbsPatches {
		rec.AbsPatches = append(rec.AbsPatches, store.Patch{Site: p.Site, Value: p.Value, Seg: p.Seg})
	}
	for _, p := range inst.Res.RelPatches {
		rec.RelPatches = append(rec.RelPatches, store.Patch{Site: p.Site, Seg: p.Seg})
	}
	names := make([]string, 0, len(inst.Res.Image.Syms))
	for n := range inst.Res.Image.Syms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		sym := store.Sym{Name: n, Addr: inst.Res.Image.Syms[n], Size: inst.Res.SymSizes[n], Kind: store.KindNone}
		if k, ok := inst.Res.SymKinds[n]; ok {
			sym.Kind = uint8(k)
		}
		sym.Seg = inst.Res.SymSegs[n]
		rec.Syms = append(rec.Syms, sym)
	}
	for _, seg := range inst.ROSegs {
		data := seg.Bytes()
		memSize := uint64(len(data))
		// Trailing zero fill (bss, page padding) reconstructs from
		// MemSize; don't store it.
		data = bytes.TrimRight(data, "\x00")
		rec.ROSegs = append(rec.ROSegs, store.Seg{
			Name: seg.Name, Addr: seg.Addr, MemSize: memSize, Perm: seg.Perm,
			Data: append([]byte(nil), data...),
		})
	}
	for i := range inst.RWSegs {
		seg := &inst.RWSegs[i]
		rec.RWSegs = append(rec.RWSegs, store.Seg{
			Name: seg.Name, Addr: seg.Addr, MemSize: seg.MemSize, Perm: uint8(seg.Perm),
			Data: append([]byte(nil), seg.Data...),
		})
	}
	btNames := make([]string, 0, len(inst.BTSlots))
	for n := range inst.BTSlots {
		btNames = append(btNames, n)
	}
	sort.Strings(btNames)
	for _, n := range btNames {
		rec.BTSlots = append(rec.BTSlots, store.Sym{Name: n, Addr: inst.BTSlots[n]})
	}
	for _, li := range inst.Libs {
		rec.LibKeys = append(rec.LibKeys, li.Key)
	}
	rec.BindKey = inst.bindKey
	for _, p := range inst.Pins {
		rec.Pins = append(rec.Pins, store.LibPin{
			LibKey: p.LibKey, ContentKey: p.ContentKey, Checksum: p.Checksum,
		})
	}
	// Persist the binding table only while it still describes this
	// instance's libraries — a concurrent re-resolution for different
	// library content must not be attributed to this image.
	if tbl := s.bindingTable(inst.bindKey); tbl != nil && len(tbl.LibKeys) == len(inst.Libs) {
		match := true
		for i, ck := range tbl.LibKeys {
			if ck == "" || inst.Libs[i].ContentKey != ck {
				match = false
				break
			}
		}
		if match {
			rec.Gen = tbl.Gen
			for _, b := range tbl.Bindings {
				rec.Bindings = append(rec.Bindings, store.Binding{
					Symbol: b.Symbol, Definer: b.Definer, DefKey: b.DefKey,
					LibIdx: uint32(b.LibIdx), Addr: b.Addr,
				})
			}
		}
	}
	return rec
}

// instanceFromRecord rebuilds the in-memory instance: shared frames
// for read-only segments, pristine byte templates for writable ones,
// and a link.Result carrying the bound symbol table and accounting.
func (s *Server) instanceFromRecord(rec *store.Record, libs []*Instance) (*Instance, error) {
	res := resultFromRecord(rec)
	inst := &Instance{
		Key: rec.Key, ContentKey: rec.ContentKey, Name: rec.Name, Res: res, Libs: libs,
		bindKey: rec.BindKey,
		place: placeRec{
			SolverKey: rec.SolverKey,
			TextBase:  rec.TextBase, TextSize: rec.TextSize,
			DataBase: rec.DataBase, DataSize: rec.DataSize,
		},
	}
	for _, sr := range rec.ROSegs {
		fs, err := s.kern.FT.MakeFrameSeg(sr.Name, sr.Addr, sr.Data, sr.MemSize, sr.Perm)
		if err != nil {
			for _, made := range inst.ROSegs {
				s.kern.FT.Release(made)
			}
			return nil, err
		}
		inst.ROSegs = append(inst.ROSegs, fs)
	}
	for _, sr := range rec.RWSegs {
		inst.RWSegs = append(inst.RWSegs, image.Segment{
			Name: sr.Name, Addr: sr.Addr, Data: sr.Data,
			MemSize: sr.MemSize, Perm: image.Perm(sr.Perm),
		})
	}
	if len(rec.BTSlots) > 0 {
		inst.BTSlots = make(map[string]uint64, len(rec.BTSlots))
		for _, sym := range rec.BTSlots {
			inst.BTSlots[sym.Name] = sym.Addr
		}
	}
	for _, p := range rec.Pins {
		inst.Pins = append(inst.Pins, Pin{
			LibKey: p.LibKey, ContentKey: p.ContentKey, Checksum: p.Checksum,
		})
	}
	return inst, nil
}

// resultFromRecord rebuilds the link.Result a record was persisted
// from: the bound symbol table, the accounting, and the full rebase
// metadata, so the result can serve as a link.Rebase source.  Shared
// between warm restore and the mesh blob-install path, which decodes a
// peer's record instead of a store entry.
func resultFromRecord(rec *store.Record) *link.Result {
	im := &image.Image{Name: rec.Name, Entry: rec.Entry, Syms: map[string]uint64{}}
	res := &link.Result{
		Image:       im,
		Syms:        im.Syms,
		AllSyms:     map[string]uint64{},
		SymSizes:    map[string]uint64{},
		SymKinds:    map[string]obj.SymKind{},
		SymSegs:     make(map[string]byte, len(rec.Syms)),
		NumRelocs:   int(rec.NumRelocs),
		ExternBinds: int(rec.ExternBinds),
		TextBase:    rec.ResTextBase,
		DataBase:    rec.ResDataBase,
		TextSize:    rec.ResTextSize,
		DataSize:    rec.ResDataSize,
		BSSSize:     rec.ResBSSSize,
		EntrySeg:    rec.EntrySeg,
	}
	for _, sym := range rec.Syms {
		im.Syms[sym.Name] = sym.Addr
		res.AllSyms[sym.Name] = sym.Addr
		if sym.Size > 0 {
			res.SymSizes[sym.Name] = sym.Size
		}
		if sym.Kind != store.KindNone {
			res.SymKinds[sym.Name] = obj.SymKind(sym.Kind)
		}
		if sym.Seg != 0 {
			res.SymSegs[sym.Name] = sym.Seg
		}
	}
	// Everything link.Rebase needs beyond the symbols: patch sites and
	// segment bytes.
	for _, p := range rec.AbsPatches {
		res.AbsPatches = append(res.AbsPatches, link.AbsPatch{Site: p.Site, Value: p.Value, Seg: p.Seg})
	}
	for _, p := range rec.RelPatches {
		res.RelPatches = append(res.RelPatches, link.RelPatch{Site: p.Site, Seg: p.Seg})
	}
	for _, sr := range rec.ROSegs {
		// Stored data is zero-trimmed; Rebase patches sites anywhere
		// in the segment, so restore the full extent.
		data := make([]byte, sr.MemSize)
		copy(data, sr.Data)
		im.Segments = append(im.Segments, image.Segment{
			Name: segBaseName(sr.Name), Addr: sr.Addr, Data: data,
			MemSize: sr.MemSize, Perm: image.Perm(sr.Perm),
		})
	}
	for _, sr := range rec.RWSegs {
		im.Segments = append(im.Segments, image.Segment{
			Name: segBaseName(sr.Name), Addr: sr.Addr, Data: sr.Data,
			MemSize: sr.MemSize, Perm: image.Perm(sr.Perm),
		})
	}
	return res
}

// evictForCapacity brings the store back under its byte budget by
// evicting least-recently-used entries from both tiers, dormant records
// included.  Victims are skipped while live: instances whose frames are
// still mapped by a process, and libraries other cached or dormant
// images link against — the
// refcounts, not the policy, decide when memory is truly reclaimable
// (frames a running process maps stay alive through its own refs
// regardless).  exclude names a key that must survive this sweep: the
// instance a builder is about to hand to its caller, which holds no
// process references yet.  Solver placements are kept so a later
// rebuild lands at the same addresses and re-earns the same cache key.
func (s *Server) evictForCapacity(exclude string) {
	s.cacheMu.Lock()
	defer s.cacheMu.Unlock()
	st := s.store
	if st == nil || st.OverCapacity() == 0 {
		return
	}
	if len(s.inflight) > 0 {
		// In-flight builds may hold references to would-be victims;
		// the next persist retries.
		return
	}
	// A library is not a victim while an image links against it, cached
	// or dormant (a dormant record's libraries are its head's LibKeys).
	deps := map[string]int{}
	for _, inst := range s.cache {
		for _, li := range inst.Libs {
			deps[li.Key]++
		}
	}
	for _, h := range s.dormant {
		for _, lk := range h.LibKeys {
			deps[lk]++
		}
	}
	for _, key := range st.KeysLRU() {
		if st.OverCapacity() == 0 {
			break
		}
		if key == exclude || key == epochStoreKey || deps[key] > 0 {
			continue
		}
		if inst := s.cache[key]; inst != nil {
			if s.mappedLive(inst) {
				continue
			}
			s.evictEntryLocked(inst)
		}
		s.dropDormantLocked(key)
		st.Delete(key)
		s.dropBlobSum(key)
	}
}

// segBaseName strips the instance-name prefix frame segments carry
// ("lib:/lib/libc/text" -> "text"), recovering the image segment name.
func segBaseName(n string) string {
	if i := strings.LastIndexByte(n, '/'); i >= 0 {
		return n[i+1:]
	}
	return n
}

// mappedLive reports whether any live process still maps the
// instance's shared frames.
func (s *Server) mappedLive(inst *Instance) bool {
	for _, seg := range inst.ROSegs {
		if s.kern.FT.SegInUse(seg) {
			return true
		}
	}
	return inst.Table != nil && s.kern.FT.SegInUse(inst.Table)
}
