package server

// This file is the server half of the federated daemon mesh
// (internal/mesh): the hook a mesh node installs with SetMesh, the
// ask-the-owner step the build paths run on a placement miss for
// remotely owned content that no local variant can serve, and the
// export/install plumbing that moves encoded store records between
// daemons.
//
// Division of labor: the mesh package owns the ring, the peers, the
// wire traffic, and the gossip/rebalance loops; this file owns
// everything that touches server state (the image cache and its
// content index, the frame table).  The hook's methods perform network
// I/O and are therefore never called under cacheMu/solverMu — the call
// sites live inside singleflight build functions, which hold no server
// locks.

import (
	"fmt"

	"omos/internal/link"
	"omos/internal/store"
)

// MeshHook is what a mesh node provides the server: ring ownership,
// owner consults, and the offer path for locally built foreign
// content.  Methods may perform network I/O; the server only calls
// them from build functions, never under its locks.
type MeshHook interface {
	// Owned reports whether this daemon is the ring owner of ckey.
	Owned(ckey string) bool
	// FetchContent asks ckey's ring owner for the encoded store record
	// of its build.  Errors mean the owner is unreachable, shedding,
	// faulted, or does not hold ckey — the caller falls back to a local
	// build.
	FetchContent(ckey string) ([]byte, error)
	// OfferContent hands the owner an encoded record this daemon just
	// built for a content key it does not own.  Best-effort: delivery
	// failures are retried by gossip.
	OfferContent(ckey string, blob []byte)
}

// SetMesh federates the server into a daemon mesh.  Must be called
// before the server sees traffic.
func (s *Server) SetMesh(h MeshHook) { s.mesh = h }

// mruVariant returns the most recently used live variant of ckey, or
// nil.  Without one it wakes the newest dormant one — through that
// record's flight, and never one whose flight is already running (it
// may be the caller's own: the build of that very key, whose wake
// failed).  Every variant can serve as a rebase source: an image with a
// content key carries the rebase metadata, linked or read from its
// record.
func (s *Server) mruVariant(ckey string) *Instance {
	var src *Instance
	var srcUse uint64
	var sleeper string
	s.cacheMu.RLock()
	for _, e := range s.byContent[ckey] {
		if e.inst == nil {
			sleeper = e.key // dormant entries keep attach order: the last is the newest
		} else if use := e.lastUse.Load(); src == nil || use > srcUse {
			src, srcUse = e.inst, use
		}
	}
	wake := src == nil && sleeper != "" && s.inflight[sleeper] == nil
	s.cacheMu.RUnlock()
	if wake {
		if inst := s.awake(sleeper); inst != nil {
			return inst
		}
	}
	return src
}

// HasVariant reports whether the server holds a variant of ckey, live
// or dormant (without waking it).
func (s *Server) HasVariant(ckey string) bool {
	s.cacheMu.RLock()
	defer s.cacheMu.RUnlock()
	return len(s.byContent[ckey]) > 0
}

// ContentKeys lists every content key with at least one variant, live
// or dormant — the digest summary gossip exchanges.
func (s *Server) ContentKeys() []string {
	s.cacheMu.RLock()
	defer s.cacheMu.RUnlock()
	out := make([]string, 0, len(s.byContent))
	for ck := range s.byContent {
		out = append(out, ck)
	}
	return out
}

// ExportContent encodes the MRU variant of ckey for a mesh peer,
// waking a dormant one when nothing is cached.  ok is false when no
// variant can be had, or an eviction released the variant's frames
// before they were read.  The encode runs without any server lock
// (instances are immutable once published; their frames are read under
// the frame table's).
func (s *Server) ExportContent(ckey string) (blob []byte, ok bool) {
	src := s.mruVariant(ckey)
	if src == nil {
		return nil, false
	}
	rec, err := s.recordOf(src)
	if err != nil {
		return nil, false
	}
	blob, err = store.Encode(rec)
	return blob, err == nil
}

// tryMeshFetch is the ask-the-owner step of a placement miss that no
// local variant could serve: when the content key's ring owner is
// another daemon, fetch the owner's build and install its bytes
// rebased to the local placement.  Any failure — owner down or
// shedding, content unknown, decode trouble — returns (nil, false) and
// the caller links locally, so the mesh can only ever remove work,
// never availability.
func (s *Server) tryMeshFetch(pl *plan, c charger) (*Instance, bool) {
	h := s.mesh
	if h == nil || s.DisableCache || pl.ckey == "" || h.Owned(pl.ckey) {
		return nil, false
	}
	s.stats.meshFetches.Add(1)
	blob, err := h.FetchContent(pl.ckey)
	var inst *Instance
	if err == nil {
		var res *link.Result
		if res, err = fetchedResult(pl, blob); err == nil {
			inst, _, err = s.slide(pl, res, nil, c)
		}
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
// owns, or for images without a content key (branch-table libraries).
func (s *Server) offerMesh(ckey string, inst *Instance) {
	h := s.mesh
	if h == nil || ckey == "" || h.Owned(ckey) {
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
