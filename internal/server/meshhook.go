package server

// This file is the server half of the federated daemon mesh
// (internal/mesh): the hook a mesh node installs with SetMesh, the
// consult-the-owner step the build paths run on a placement miss for
// remotely owned content, and the export/install plumbing that moves
// encoded store records between daemons.
//
// Division of labor: the mesh package owns the ring, the peers, the
// wire traffic, and the gossip/rebalance loops; this file owns
// everything that touches server state (the variants index, the frame
// table, the image cache).  The hook's methods perform network I/O and
// are therefore never called under cacheMu/solverMu — the call sites
// live inside singleflight build functions, which hold no server
// locks.

import (
	"fmt"

	"omos/internal/link"
	"omos/internal/store"
)

// MeshMeta summarizes a build's link-time invariants: what a
// metadata-only mesh reply carries, and what the requester checks its
// local variant against before trusting a local rebase to converge
// with the owner's build.
type MeshMeta struct {
	AbsPatches int
	RelPatches int
	Syms       int
	TextSize   uint64
	DataSize   uint64
}

// MeshReply is the owner's answer to a content-key fetch.
type MeshReply struct {
	// Found reports whether the owner holds the content key.
	Found bool
	// MetaOnly marks a metadata-only reply: Blob is empty and the
	// requester rebases its own variant after validating Meta.
	MetaOnly bool
	Meta     MeshMeta
	// Blob is the encoded store record of the owner's build (full
	// replies only).
	Blob []byte
}

// MeshHook is what a mesh node provides the server: ring ownership,
// owner consults, and the offer path for locally built foreign
// content.  Methods may perform network I/O; the server only calls
// them from build functions, never under its locks.
type MeshHook interface {
	// Owned reports whether this daemon is the ring owner of ckey.
	Owned(ckey string) bool
	// FetchContent consults ckey's ring owner.  haveBytes tells the
	// owner a metadata-only reply suffices (the requester holds a
	// variant to rebase).  Errors mean the owner is unreachable,
	// shedding, or faulted — the caller falls back to a local build.
	FetchContent(ckey string, textBase, dataBase uint64, haveBytes bool) (*MeshReply, error)
	// OfferContent hands the owner an encoded record this daemon just
	// built for a content key it does not own.  Best-effort: delivery
	// failures are retried by gossip.
	OfferContent(ckey string, blob []byte)
}

// SetMesh federates the server into a daemon mesh.  Must be called
// before the server sees traffic.
func (s *Server) SetMesh(h MeshHook) { s.mesh = h }

// NamespaceGen returns the published namespace version's number
// (advanced by every mutation); gossip exchanges it so fleet-wide
// namespace skew is observable.
func (s *Server) NamespaceGen() uint64 { return s.ns.Load().num }

// mruVariant returns the most recently used rebase-capable variant of
// ckey, or nil.  Without a cached one it wakes the most recent dormant
// one — through that record's flight, and never one whose flight is
// already running (it may be the caller's own: the build of that very
// key, whose wake failed).
func (s *Server) mruVariant(ckey string) *Instance {
	var src *Instance
	var sleeper string
	s.cacheMu.RLock()
	for _, v := range s.variants[ckey] {
		if !rebaseSource(v) {
			continue
		}
		if src == nil || v.lastUse.Load() > src.lastUse.Load() {
			src = v
		}
	}
	if hs := s.dormantCK[ckey]; src == nil && len(hs) > 0 && s.inflight[hs[len(hs)-1].Key] == nil {
		sleeper = hs[len(hs)-1].Key
	}
	s.cacheMu.RUnlock()
	if sleeper != "" {
		if inst := s.awake(sleeper); inst != nil && rebaseSource(inst) {
			return inst
		}
	}
	return src
}

// HasVariant reports whether the server holds a rebase-capable variant
// of ckey, cached or dormant (without waking it).
func (s *Server) HasVariant(ckey string) bool {
	s.cacheMu.RLock()
	defer s.cacheMu.RUnlock()
	return s.hasVariantLocked(ckey)
}

func (s *Server) hasVariantLocked(ckey string) bool {
	if len(s.dormantCK[ckey]) > 0 {
		return true
	}
	for _, v := range s.variants[ckey] {
		if rebaseSource(v) {
			return true
		}
	}
	return false
}

// ContentKeys lists every content key with at least one rebase-capable
// variant, cached or dormant — the digest summary gossip exchanges.
func (s *Server) ContentKeys() []string {
	s.cacheMu.RLock()
	defer s.cacheMu.RUnlock()
	out := make([]string, 0, len(s.variants)+len(s.dormantCK))
	for ck := range s.variants {
		if s.hasVariantLocked(ck) {
			out = append(out, ck)
		}
	}
	for ck := range s.dormantCK {
		if len(s.variants[ck]) == 0 {
			out = append(out, ck)
		}
	}
	return out
}

// metaOf extracts the link-time invariants of a variant.
func metaOf(src *Instance) MeshMeta {
	r := src.Res
	return MeshMeta{
		AbsPatches: len(r.AbsPatches),
		RelPatches: len(r.RelPatches),
		Syms:       len(r.Image.Syms),
		TextSize:   r.TextSize,
		DataSize:   r.DataSize,
	}
}

// ExportContent encodes the MRU variant of ckey for a mesh peer,
// waking a dormant one when nothing is cached.  With metaOnly the blob
// is omitted — the invariants are the payload.  ok is false when no
// rebase-capable variant can be had, or an eviction released the
// variant's frames before they were read.  The encode runs without any
// server lock (instances are immutable once published; their frames
// are read under the frame table's).
func (s *Server) ExportContent(ckey string, metaOnly bool) (blob []byte, meta MeshMeta, ok bool) {
	src := s.mruVariant(ckey)
	if src == nil {
		return nil, MeshMeta{}, false
	}
	meta = metaOf(src)
	if metaOnly {
		return nil, meta, true
	}
	rec, err := s.recordOf(src)
	if err != nil {
		return nil, MeshMeta{}, false
	}
	blob, err = store.Encode(rec)
	if err != nil {
		return nil, MeshMeta{}, false
	}
	return blob, meta, true
}

// variantMatches checks the local MRU variant of ckey against the
// owner's link-time invariants: equal patch counts, symbol count, and
// extents mean the local bytes are the same build and a local rebase
// converges with the fleet.
func (s *Server) variantMatches(ckey string, m MeshMeta) bool {
	src := s.mruVariant(ckey)
	return src != nil && metaOf(src) == m
}

// tryMeshFetch is the consult-the-owner step of a placement miss: when
// the content key's ring owner is another daemon, ask it before
// building anything locally.  A metadata-only reply validates and
// slides a local variant (the metadata-only peer rebase — the mesh's
// cheap path); a blob reply installs the owner's bytes rebased to the
// local placement.  Any failure — owner down or shedding, content
// unknown, validation or decode trouble — returns (nil, false) and the
// caller proceeds down the ordinary local path, so the mesh can only
// ever remove work, never availability.
func (s *Server) tryMeshFetch(pl *plan, c charger) (*Instance, bool) {
	h := s.mesh
	ckey, textBase, dataBase := pl.ckey, pl.place.TextBase, pl.place.DataBase
	if h == nil || s.DisableCache || ckey == "" || h.Owned(ckey) {
		return nil, false
	}
	have := s.HasVariant(ckey)
	s.stats.meshFetches.Add(1)
	reply, err := h.FetchContent(ckey, textBase, dataBase, have)
	if err != nil || reply == nil || !reply.Found {
		s.stats.meshFallbacks.Add(1)
		return nil, false
	}
	if reply.MetaOnly {
		// The owner confirmed the content key and sent its build's
		// invariants: validate the local variant against them, then
		// slide it locally via the rebase fast path.
		if s.variantMatches(ckey, reply.Meta) {
			if inst, ok := s.tryRebase(pl, c); ok {
				s.stats.meshMetaRebases.Add(1)
				return inst, true
			}
		}
		// Divergent or unusable local variant: converge on the owner's
		// bytes instead.
		reply, err = h.FetchContent(ckey, textBase, dataBase, false)
		if err != nil || reply == nil || !reply.Found || reply.MetaOnly {
			s.stats.meshFallbacks.Add(1)
			return nil, false
		}
	}
	var inst *Instance
	res, err := fetchedResult(pl, reply.Blob)
	if err == nil {
		inst, _, err = s.slide(pl, res, nil, c)
	}
	if err != nil {
		s.stats.meshFallbacks.Add(1)
		return nil, false
	}
	s.stats.meshBlobInstalls.Add(1)
	return inst, true
}

// fetchedResult decodes a peer's record blob into a result the plan's
// image can be slid from.  The content key's construction guarantees
// safety: equal ckeys imply the same library cache keys, which pin the
// same library placements — so the extern addresses baked into the
// fetched bytes are valid here too.  Local resolution state (pins,
// binding key) is attached fresh by materialize; the peer's is ignored.
func fetchedResult(pl *plan, blob []byte) (*link.Result, error) {
	rec, err := store.Decode(blob)
	if err != nil {
		return nil, fmt.Errorf("server: mesh blob for %s: %w", pl.name, err)
	}
	if rec.ContentKey != pl.ckey {
		return nil, fmt.Errorf("server: mesh blob content key mismatch: want %s, got %s", pl.ckey, rec.ContentKey)
	}
	res := resultFromRecord(rec)
	if len(res.Image.Segments) == 0 {
		return nil, fmt.Errorf("server: mesh blob for %s carries no rebase metadata", pl.name)
	}
	// No frames hold the peer's read-only bytes here yet: the slide reads
	// them from the record (resultFromRecord puts those segments first),
	// with the zero fill the store trims restored, because Rebase patches
	// sites anywhere in a segment.
	for i, sr := range rec.ROSegs {
		data := make([]byte, sr.MemSize)
		copy(data, sr.Data)
		res.Image.Segments[i].Data = data
	}
	return res, nil
}

// offerMesh hands a freshly built image of remotely owned content to
// its ring owner, so the fleet converges on this one build instead of
// relinking per daemon.  No-op outside a mesh, for content this daemon
// owns, or for images that cannot serve as rebase sources.
func (s *Server) offerMesh(ckey string, inst *Instance) {
	h := s.mesh
	if h == nil || ckey == "" || h.Owned(ckey) || !rebaseSource(inst) {
		return
	}
	rec, err := s.recordOf(inst)
	if err != nil {
		return
	}
	blob, err := store.Encode(rec)
	if err != nil {
		return
	}
	h.OfferContent(ckey, blob)
}
