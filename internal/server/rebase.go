package server

import (
	"omos/internal/image"
	"omos/internal/link"
	"omos/internal/mgraph"
)

// This file is the server half of the rebase fast path.  The cache
// key of an instance includes its solver placement, so the same
// library placed at a different base for a different client is a
// cache miss — but its *bytes* differ from a cached variant only at
// the recorded patch sites.  Instances therefore carry a second,
// placement-independent identity (Instance.ContentKey), and the
// content index (Server.byContent) maps each content key to its
// placement variants, live or dormant.  A placement miss with a
// content hit slides the most recently used variant with link.Rebase —
// O(patch sites) instead of a full four-pass relink — and materializes
// the slid image so pages without a patch site stay physically shared
// with the source.

// contentKeyLib is a library's placement-independent identity:
// content hash, specialization kind (but not address preferences —
// those only steer placement), and the identities of the libraries it
// was bound against.  Library identities are full cache keys: extern
// addresses baked into the image depend on where its libraries
// landed, so variants are only interchangeable when they were linked
// against the very same library instances.
func contentKeyLib(ch, specKind string, libs []*Instance) string {
	return mgraph.Digest("librb", ch, specKind, libKeys(libs))
}

// contentKeyProg is a program's placement-independent identity: the
// construction subgraph hash plus library identities.
func contentKeyProg(subHash string, libs []*Instance) string {
	return mgraph.Digest("progrb", subHash, libKeys(libs))
}

// tryRebase attempts to serve a placement miss from a content hit:
// slide the most recently used variant of the plan's content to
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
	from, ok := s.slideSource(src)
	if !ok {
		return nil, false
	}
	inst, shared, err := s.slide(pl, from, src, c)
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

// slideSource returns src's link result with its read-only segments'
// bytes read back from src's frames, the one copy a published instance
// keeps of them.  false when an eviction released the frames first: the
// caller links in full instead.
func (s *Server) slideSource(src *Instance) (*link.Result, bool) {
	res, img := *src.Res, *src.Res.Image
	img.Segments = make([]image.Segment, len(src.Res.Image.Segments))
	for i, seg := range src.Res.Image.Segments {
		if seg.Perm&image.PermW == 0 {
			fs := src.roSeg(seg.Name)
			if fs == nil {
				return nil, false
			}
			data, ok := s.kern.FT.SegBytes(fs)
			if !ok {
				return nil, false
			}
			seg.Data = data
		}
		img.Segments[i] = seg
	}
	res.Image = &img
	return &res, true
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
