package link

import (
	"encoding/binary"
	"fmt"
	"sort"

	"omos/internal/image"
	"omos/internal/osim"
)

// RebaseInfo reports the delta-apply work a Rebase performed: how many
// 8-byte sites were rewritten and how many pages those rewrites
// dirtied.  Pages without a patch site keep bytes identical to the
// source image, so they can stay physically shared between the source
// and rebased variants.
type RebaseInfo struct {
	// FromText and FromData are the source image's segment bases.
	FromText uint64
	FromData uint64
	// Patches counts 8-byte sites rewritten: absolute patches plus the
	// cross-segment PC-relative adjustments.
	Patches int
	// TextDirtyPages and DataDirtyPages count pages whose bytes differ
	// from the source image because a patch site landed on them.
	TextDirtyPages int
	DataDirtyPages int
}

// Rebase derives the image the module would produce if freshly linked
// at (newText, newData), by sliding the cached result instead of
// re-running the four link passes.  Segment bytes are copied, exported
// addresses and GOT slots shift by their segment's delta (Exports, which
// holds no address, is shared with the source), and only the recorded
// patch sites are rewritten:
//
//   - AbsPatches: the site slides with its containing segment; the
//     stored value slides with the segment its target lives in
//     (external targets are pre-bound library addresses and stay put).
//   - RelPatches: PC-relative displacements from text to a non-text
//     target change by (dataDelta-textDelta) for module data targets,
//     and by -textDelta for fixed external targets.  Text-to-text
//     displacements are invariant under the uniform slide and are
//     untouched by construction.
//
// The cost is O(patch sites), not O(relocations): this is what turns
// the server's placement miss into a cheap delta apply.  The result is
// byte-identical to a fresh Link at the new bases (the differential
// test and fuzz target enforce this).
func Rebase(res *Result, newText, newData uint64) (*Result, error) {
	if res == nil || res.Image == nil {
		return nil, fmt.Errorf("link: rebase: nil result")
	}
	if newText%osim.PageSize != 0 || newData%osim.PageSize != 0 {
		return nil, fmt.Errorf("link: rebase %s: unaligned segment base (text=%#x data=%#x)",
			res.Image.Name, newText, newData)
	}
	deltaT := newText - res.TextBase
	deltaD := newData - res.DataBase
	deltaOf := func(seg byte) uint64 {
		switch seg {
		case SegText:
			return deltaT
		case SegData:
			return deltaD
		default: // SegExtern: pre-bound addresses do not move.
			return 0
		}
	}
	// siteSeg classifies a site address by the source segment ranges.
	// Patch and reloc sites are strictly interior to their segment
	// (obj.Validate bounds site+8 by the section length), so the range
	// test is exact for sites even though zero-size symbols may sit on
	// a segment boundary — symbols are classified by Exports instead.
	textEnd := res.TextBase + res.TextSize
	siteSeg := func(a uint64) byte {
		if res.TextSize > 0 && a >= res.TextBase && a < textEnd {
			return SegText
		}
		return SegData
	}
	shiftSite := func(a uint64) uint64 { return a + deltaOf(siteSeg(a)) }

	out := &Result{
		Exports:     res.Exports,
		EntrySeg:    res.EntrySeg,
		GotSize:     res.GotSize,
		NumRelocs:   res.NumRelocs,
		ExternBinds: res.ExternBinds,
		Records:     res.Records,
		TextBase:    newText,
		DataBase:    newData,
		TextSize:    res.TextSize,
		DataSize:    res.DataSize,
		BSSSize:     res.BSSSize,
	}
	syms := make(map[string]uint64, len(res.Image.Syms))
	for name, a := range res.Image.Syms {
		syms[name] = a + deltaOf(res.Exports[name].Seg)
	}
	if res.GotSize > 0 {
		out.GotBase = res.GotBase + deltaD
		out.GotSlots = make(map[string]uint64, len(res.GotSlots))
		for name, a := range res.GotSlots {
			out.GotSlots[name] = a + deltaD
		}
	} else {
		out.GotSlots = map[string]uint64{}
	}
	if len(res.Unresolved) > 0 {
		out.Unresolved = make([]Unresolved, len(res.Unresolved))
		for i, u := range res.Unresolved {
			d := deltaOf(siteSeg(u.Site))
			u.Site += d
			u.InstrAddr += d
			if u.GotSlot != 0 {
				u.GotSlot += deltaD
			}
			out.Unresolved[i] = u
		}
		sort.Slice(out.Unresolved, func(i, j int) bool { return out.Unresolved[i].Site < out.Unresolved[j].Site })
	}

	// Copy segment bytes and apply the patch deltas.
	img := &image.Image{Name: res.Image.Name, Syms: syms}
	var textBuf, dataBuf []byte
	for i := range res.Image.Segments {
		seg := res.Image.Segments[i]
		data := append([]byte(nil), seg.Data...)
		switch seg.Name {
		case "text":
			seg.Addr = newText
			textBuf = data
		case "data":
			seg.Addr = newData
			dataBuf = data
		default:
			return nil, fmt.Errorf("link: rebase %s: unknown segment %q", res.Image.Name, seg.Name)
		}
		seg.Data = data
		img.Segments = append(img.Segments, seg)
	}
	info := &RebaseInfo{FromText: res.TextBase, FromData: res.DataBase}
	textDirty := map[uint64]bool{}
	dataDirty := map[uint64]bool{}
	// patch rewrites the 8 bytes at the source-relative offset of site,
	// marking the touched pages dirty when the stored value changed.
	patch := func(site uint64, val uint64, changed bool) error {
		var buf []byte
		var off uint64
		dirty := dataDirty
		if siteSeg(site) == SegText {
			buf, off, dirty = textBuf, site-res.TextBase, textDirty
		} else {
			buf, off = dataBuf, site-res.DataBase
		}
		if off+8 > uint64(len(buf)) {
			return fmt.Errorf("link: rebase %s: patch site %#x out of range", res.Image.Name, site)
		}
		binary.LittleEndian.PutUint64(buf[off:], val)
		info.Patches++
		if changed {
			dirty[off/osim.PageSize] = true
			dirty[(off+7)/osim.PageSize] = true
		}
		return nil
	}
	if len(res.AbsPatches) > 0 {
		out.AbsPatches = make([]AbsPatch, len(res.AbsPatches))
	}
	for i, p := range res.AbsPatches {
		vd := deltaOf(p.Seg)
		np := AbsPatch{Site: shiftSite(p.Site), Value: p.Value + vd, Seg: p.Seg}
		if err := patch(p.Site, np.Value, vd != 0); err != nil {
			return nil, err
		}
		out.AbsPatches[i] = np
	}
	if len(res.RelPatches) > 0 {
		out.RelPatches = make([]RelPatch, len(res.RelPatches))
	}
	for i, rp := range res.RelPatches {
		// A displacement stored in text: target slides by its segment's
		// delta, the site (PC) by the text delta.
		adj := deltaOf(rp.Seg) - deltaT
		off := rp.Site - res.TextBase
		if off+8 > uint64(len(textBuf)) {
			return nil, fmt.Errorf("link: rebase %s: pc-rel site %#x out of range", res.Image.Name, rp.Site)
		}
		old := binary.LittleEndian.Uint64(textBuf[off:])
		if err := patch(rp.Site, old+adj, adj != 0); err != nil {
			return nil, err
		}
		out.RelPatches[i] = RelPatch{Site: rp.Site + deltaT, Seg: rp.Seg}
	}
	info.TextDirtyPages = len(textDirty)
	info.DataDirtyPages = len(dataDirty)

	if res.Image.Entry != 0 {
		img.Entry = res.Image.Entry + deltaOf(res.EntrySeg)
	}
	if err := img.Validate(); err != nil {
		return nil, fmt.Errorf("link: rebase %s: %w", res.Image.Name, err)
	}
	out.Image = img
	out.Rebased = info
	return out, nil
}
