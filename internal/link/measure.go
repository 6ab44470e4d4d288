package link

import (
	"fmt"

	"omos/internal/jigsaw"
	"omos/internal/obj"
)

const fragAlign = 16

func alignUp(v, a uint64) uint64 { return (v + a - 1) &^ (a - 1) }

// offsets holds one position in each section: text, initialized data
// and bss.
type offsets struct{ text, data, bss uint64 }

// layout is where a module's fragments land: each view's offset into
// each section, in view order, and the GOT's slot names in first-use
// order.  Link, Measure and Partial all lay a module out with it.
type layout struct {
	views []jigsaw.LinkView
	at    []offsets
	got   []string
	// size is each section's length: text, initialized data (the GOT
	// excluded) and bss.
	size offsets
}

// layoutOf lays out m's fragments: text at 16-byte boundaries, data and
// bss at 8-byte ones.
func layoutOf(m *jigsaw.Module) *layout {
	views := m.LinkViews()
	l := &layout{views: views, at: make([]offsets, len(views))}
	seen := map[string]bool{}
	for i := range views {
		o := views[i].Obj
		for _, r := range o.Relocs {
			if r.Kind != obj.RelGotSlot {
				continue
			}
			if ext := views[i].RefExt[r.Symbol]; !seen[ext] {
				seen[ext] = true
				l.got = append(l.got, ext)
			}
		}
		s := &l.size
		s.text, s.data, s.bss = alignUp(s.text, fragAlign), alignUp(s.data, 8), alignUp(s.bss, 8)
		l.at[i] = *s
		s.text += uint64(len(o.Text))
		s.data += uint64(len(o.Data))
		s.bss += o.BSSSize
	}
	return l
}

// gotSize is the GOT's length: it sits at the front of the data
// segment, ahead of the fragments' data.
func (l *layout) gotSize() uint64 { return uint64(len(l.got)) * 8 }

// bssStart is where bss begins, measured from the data segment base.
func (l *layout) bssStart() uint64 { return alignUp(l.gotSize()+l.size.data, 8) }

// dataMem is the data segment's extent in memory: GOT, data and bss.
func (l *layout) dataMem() uint64 { return alignUp(l.bssStart()+l.size.bss, 8) }

// addr is where offset off in view i's section sec lands, given where
// each section starts.
func (l *layout) addr(start offsets, i int, sec obj.SectionKind, off uint64) uint64 {
	switch sec {
	case obj.SecText:
		return start.text + l.at[i].text + off
	case obj.SecData:
		return start.data + l.at[i].data + off
	default:
		return start.bss + l.at[i].bss + off
	}
}

// walkDefs calls fn for each live definition in lv and then each alias,
// with the raw symbol it names.  jigsaw keys a fragment's definitions
// by the defined symbols of its own object, and builds every alias from
// one of them, so the raw symbol is always there; who prefixes the
// error that would report an alias whose target is not.
func walkDefs(lv *jigsaw.LinkView, who string, fn func(ext string, local bool, s *obj.Symbol) error) error {
	raw := make(map[string]*obj.Symbol, len(lv.Obj.Syms))
	for i := range lv.Obj.Syms {
		if s := &lv.Obj.Syms[i]; s.Defined {
			raw[s.Name] = s
		}
	}
	for _, d := range lv.Defs {
		if !d.Deleted {
			if err := fn(d.Ext, d.Local, raw[d.Raw]); err != nil {
				return err
			}
		}
	}
	for _, a := range lv.Aliases {
		s, ok := raw[a.TargetRaw]
		if !ok {
			return fmt.Errorf("%s: alias %s targets undefined %s", who, a.Ext, a.TargetRaw)
		}
		if err := fn(a.Ext, a.Local, s); err != nil {
			return err
		}
	}
	return nil
}

// Measure computes the exact text and data+bss extents the module will
// occupy when linked: Link's own layout.  The constraint solver uses it
// to place an image before the link runs.
func Measure(m *jigsaw.Module) (textSize, dataSize uint64) {
	l := layoutOf(m)
	return l.size.text, l.dataMem()
}
