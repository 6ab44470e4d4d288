package server

import (
	"omos/internal/link"
)

// This file is the server half of the rebase fast path.  The cache
// key of an instance includes its solver placement, so the same
// library placed at a different base for a different client is a
// cache miss — but its *bytes* differ from a cached variant only at
// the recorded patch sites.  Instances therefore carry a second,
// placement-independent identity (Instance.ContentKey), and the
// variants index maps each content key to its cached placement
// variants.  A placement miss with a content hit slides the most
// recently used variant with link.Rebase — O(patch sites) instead of
// a full four-pass relink — and materializes the slid image so pages
// without a patch site stay physically shared with the source.

// contentKeyLib is a library's placement-independent identity:
// content hash, specialization kind (but not address preferences —
// those only steer placement), and the identities of the libraries it
// was bound against.  Library identities are full cache keys: extern
// addresses baked into the image depend on where its libraries
// landed, so variants are only interchangeable when they were linked
// against the very same library instances.
func contentKeyLib(ch, specKind string, libs []*Instance) string {
	return digestStr("librb", ch, specKind, libKeys(libs))
}

// contentKeyProg is a program's placement-independent identity: the
// construction subgraph hash plus library identities.
func contentKeyProg(subHash string, libs []*Instance) string {
	return digestStr("progrb", subHash, libKeys(libs))
}

// rebaseSource reports whether a cached instance carries everything
// link.Rebase needs: segment bytes and the per-symbol segment classes
// recorded at link time.  Branch-table libraries carry no content key
// and never reach the variants index.
func rebaseSource(src *Instance) bool {
	r := src.Res
	return r != nil && r.Image != nil && len(r.Image.Segments) > 0 && r.SymSegs != nil
}

// tryRebase attempts to serve a placement miss from a content hit:
// slide the most recently used cached variant of the plan's content to
// the plan's bases, sharing clean pages with it.  Returns (nil, false)
// when no variant is usable — the caller falls back to the full
// relink.
func (s *Server) tryRebase(pl *plan, c charger) (*Instance, bool) {
	if s.DisableCache || pl.ckey == "" {
		return nil, false
	}
	src := s.mruVariant(pl.ckey)
	if src == nil {
		return nil, false
	}
	inst, shared, err := s.slide(pl, src.Res, src, c)
	if err != nil {
		return nil, false
	}
	info := inst.Res.Rebased
	s.stats.rebases.Add(1)
	s.stats.rebasePatches.Add(uint64(info.Patches))
	s.stats.rebaseDirtyPages.Add(uint64(info.TextDirtyPages + info.DataDirtyPages))
	s.stats.rebaseSharedPages.Add(uint64(shared))
	return inst, true
}

// slide derives the plan's image from a result linked at other bases
// and materializes it: the common tail of the rebase fast path (src is
// the local variant whose clean pages the new frames share) and of a
// mesh blob install (src is nil, the bytes came from a peer).  The
// cost charged is proportional to the patch count, not the relocation
// count.
func (s *Server) slide(pl *plan, from *link.Result, src *Instance, c charger) (*Instance, int, error) {
	slid, err := link.Rebase(from, pl.place.TextBase, pl.place.DataBase)
	if err != nil {
		return nil, 0, err
	}
	slid.Image.Name = pl.name
	inst, shared, err := s.materialize(pl, slid, src)
	if err != nil {
		return nil, 0, err
	}
	cost := uint64(slid.Rebased.Patches) * s.kern.Cost.ServerRebasePatch
	if c != nil {
		c.ChargeServer(cost)
	}
	s.stats.cacheMisses.Add(1)
	s.stats.buildCycles.Add(cost)
	return inst, shared, nil
}

// dropVariantLocked removes an evicted instance from the variants
// index.  Caller holds cacheMu.
func (s *Server) dropVariantLocked(inst *Instance) {
	if inst.ContentKey != "" {
		unindex(s.variants, inst.ContentKey, inst)
	}
}

// unindex removes v from the list m keeps under k, and the list once it
// is empty.
func unindex[T comparable](m map[string][]T, k string, v T) {
	vs := m[k]
	for i, x := range vs {
		if x == v {
			vs = append(vs[:i], vs[i+1:]...)
			break
		}
	}
	if len(vs) == 0 {
		delete(m, k)
	} else {
		m[k] = vs
	}
}
