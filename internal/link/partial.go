package link

import (
	"fmt"
	"sort"

	"omos/internal/jigsaw"
	"omos/internal/obj"
)

// Partial flattens a module into a single relocatable object ("ld -r"
// style): sections are laid out as Link lays them out, the symbol table
// reflects the module's current namespace views, and unresolved
// relocations are preserved for a later link.  This is what lets the
// OFE tool apply module operations to object files in an ordinary
// filesystem (§8.1's "non-server version of OMOS").
func Partial(m *jigsaw.Module, name string) (*obj.Object, error) {
	l := layoutOf(m)
	out := &obj.Object{Name: name, BSSSize: l.size.bss}
	if l.size.text > 0 {
		out.Text = make([]byte, l.size.text)
	}
	if l.size.data > 0 {
		out.Data = make([]byte, l.size.data)
	}
	for i := range l.views {
		copy(out.Text[l.at[i].text:], l.views[i].Obj.Text)
		copy(out.Data[l.at[i].data:], l.views[i].Obj.Data)
	}

	// Symbol table: definitions and aliases under their external
	// names.  Deleted definitions vanish; local (hidden/frozen) ones
	// stay resolvable under their privatized names.  listed holds every
	// name the table has an entry for.
	listed := map[string]bool{}
	who := "link: partial " + name
	for i := range l.views {
		err := walkDefs(&l.views[i], who, func(ext string, local bool, s *obj.Symbol) error {
			if listed[ext] {
				return fmt.Errorf("%s: duplicate definition of %s", who, ext)
			}
			listed[ext] = true
			bind := obj.BindGlobal
			if local {
				bind = obj.BindLocal
			}
			out.Syms = append(out.Syms, obj.Symbol{
				Name: ext, Kind: s.Kind, Bind: bind, Defined: true,
				Section: s.Section, Offset: l.addr(offsets{}, i, s.Section, s.Offset), Size: s.Size,
			})
			return nil
		})
		if err != nil {
			return nil, err
		}
	}

	// Relocations, retargeted to external names; referenced names that
	// lack a definition become undefined symbols, in name order so the
	// flattened object is a function of the module.
	var undef []string
	for i := range l.views {
		lv := &l.views[i]
		for _, r := range lv.Obj.Relocs {
			r.Symbol = lv.RefExt[r.Symbol]
			r.Offset = l.addr(offsets{}, i, r.Section, r.Offset)
			out.Relocs = append(out.Relocs, r)
			if !listed[r.Symbol] {
				listed[r.Symbol] = true
				undef = append(undef, r.Symbol)
			}
		}
	}
	sort.Strings(undef)
	for _, name := range undef {
		out.Syms = append(out.Syms, obj.Symbol{Name: name})
	}
	if err := out.Validate(); err != nil {
		return nil, fmt.Errorf("link: partial: %w", err)
	}
	return out, nil
}
