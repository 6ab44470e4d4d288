// Package jigsaw implements the module operators of Bracha and
// Lindstrom's Jigsaw as used by OMOS (§3.3 of the paper): merge,
// override, freeze, restrict, project, copy-as, hide, show, and
// rename.
//
// A Module is "a self-referential naming scope": a set of code/data
// fragments together with a *view* — an incremental mapping from each
// fragment's raw symbol names to the names visible at the module
// boundary.  Operators never rewrite the underlying object files; they
// produce new views, which is what makes incremental namespace
// modification cheap (the paper's "many different name configurations
// ('views') ... mapped onto a given object file").
//
// All operators are functional: they return a new Module, leaving the
// operand untouched.  This matches m-graph evaluation, where a cached
// subgraph result may be shared by several graphs.
package jigsaw

import (
	"fmt"
	"regexp"
	"sort"
	"sync/atomic"

	"omos/internal/obj"
)

// uniq generates process-unique suffixes for privatized names.  The
// names never appear in image bytes, so this does not perturb builds.
var uniq atomic.Uint64

// defInfo describes one definition-like entry (a real definition or an
// alias created by copy-as/freeze).
type defInfo struct {
	// ext is the name visible at the module boundary.
	ext string
	// local entries resolve references within this module but are not
	// exported (hide) and do not conflict across modules.
	local bool
	// deleted entries no longer resolve anything (restrict, override).
	deleted bool
}

// Fragment is one underlying object plus its current view.
type Fragment struct {
	o *obj.Object
	// defs maps raw symbol names of definitions to their current info.
	defs map[string]defInfo
	// refs maps raw undefined-symbol names to current external names.
	refs map[string]string
	// aliases maps alias id -> (ext name, raw target, flags).  Alias
	// ids are synthetic and stable within the fragment.
	aliases map[string]aliasInfo
}

type aliasInfo struct {
	defInfo
	targetRaw string
}

// Module is an immutable set of fragments under a shared namespace.
type Module struct {
	frags []*Fragment
}

// NewModule wraps relocatable objects as a module.  Object-local
// symbols are privatized immediately so they can never collide across
// fragments.
func NewModule(objs ...*obj.Object) (*Module, error) {
	m := &Module{}
	for _, o := range objs {
		if err := o.Validate(); err != nil {
			return nil, fmt.Errorf("jigsaw: %w", err)
		}
		f := &Fragment{
			o:       o,
			defs:    make(map[string]defInfo),
			refs:    make(map[string]string),
			aliases: make(map[string]aliasInfo),
		}
		for i := range o.Syms {
			s := &o.Syms[i]
			switch {
			case !s.Defined:
				f.refs[s.Name] = s.Name
			case s.Bind == obj.BindLocal:
				f.defs[s.Name] = defInfo{ext: privName(s.Name), local: true}
			default:
				f.defs[s.Name] = defInfo{ext: s.Name}
			}
		}
		m.frags = append(m.frags, f)
	}
	return m, nil
}

func privName(base string) string {
	return fmt.Sprintf("%s$p%d", base, uniq.Add(1))
}

// clone deep-copies the module's views (not the underlying objects).
func (m *Module) clone() *Module {
	out := &Module{frags: make([]*Fragment, len(m.frags))}
	for i, f := range m.frags {
		nf := &Fragment{
			o:       f.o,
			defs:    make(map[string]defInfo, len(f.defs)),
			refs:    make(map[string]string, len(f.refs)),
			aliases: make(map[string]aliasInfo, len(f.aliases)),
		}
		for k, v := range f.defs {
			nf.defs[k] = v
		}
		for k, v := range f.refs {
			nf.refs[k] = v
		}
		for k, v := range f.aliases {
			nf.aliases[k] = v
		}
		out.frags[i] = nf
	}
	return out
}

// exportedDefs returns ext name -> count of exported, non-deleted
// definition-like entries.
func (m *Module) exportedDefs() map[string]int {
	out := map[string]int{}
	for _, f := range m.frags {
		for _, d := range f.defs {
			if !d.deleted && !d.local {
				out[d.ext]++
			}
		}
		for _, a := range f.aliases {
			if !a.deleted && !a.local {
				out[a.ext]++
			}
		}
	}
	return out
}

// resolvableDefs returns ext name -> count of all non-deleted entries
// (exported or module-local); these are the names link resolution may
// bind references to.
func (m *Module) resolvableDefs() map[string]int {
	out := map[string]int{}
	for _, f := range m.frags {
		for _, d := range f.defs {
			if !d.deleted {
				out[d.ext]++
			}
		}
		for _, a := range f.aliases {
			if !a.deleted {
				out[a.ext]++
			}
		}
	}
	return out
}

// Defined returns the sorted exported definition names.
func (m *Module) Defined() []string {
	set := m.exportedDefs()
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Undefined returns the sorted names referenced but not resolvable
// within the module.
func (m *Module) Undefined() []string {
	defs := m.resolvableDefs()
	set := map[string]bool{}
	for _, f := range m.frags {
		for _, ext := range f.refs {
			if defs[ext] == 0 {
				set[ext] = true
			}
		}
	}
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Merge combines modules, binding definitions in each operand to
// references in the others.  Multiple exported definitions of a symbol
// constitute an error (per the paper's merge).
func Merge(ms ...*Module) (*Module, error) {
	out := &Module{}
	for _, m := range ms {
		c := m.clone()
		out.frags = append(out.frags, c.frags...)
	}
	var dups []string
	for name, n := range out.exportedDefs() {
		if n > 1 {
			dups = append(dups, name)
		}
	}
	if len(dups) > 0 {
		sort.Strings(dups)
		return nil, fmt.Errorf("jigsaw: merge: multiple definitions of %v", dups)
	}
	return out, nil
}

// Override merges base and over, resolving conflicting bindings in
// favor of over: base's conflicting definitions are removed, so
// references throughout the module (including base's own internal
// references, unless frozen) bind to over's definitions.
func Override(base, over *Module) (*Module, error) {
	b := base.clone()
	o := over.clone()
	overNames := o.exportedDefs()
	for _, f := range b.frags {
		for raw, d := range f.defs {
			if !d.deleted && !d.local && overNames[d.ext] > 0 {
				d.deleted = true
				f.defs[raw] = d
			}
		}
		for id, a := range f.aliases {
			if !a.deleted && !a.local && overNames[a.ext] > 0 {
				a.deleted = true
				f.aliases[id] = a
			}
		}
	}
	out := &Module{frags: append(b.frags, o.frags...)}
	var dups []string
	for name, n := range out.exportedDefs() {
		if n > 1 {
			dups = append(dups, name)
		}
	}
	if len(dups) > 0 {
		sort.Strings(dups)
		return nil, fmt.Errorf("jigsaw: override: multiple definitions of %v", dups)
	}
	return out, nil
}

// forEachExportedEntry visits every non-deleted exported entry,
// allowing mutation through the setters.
func (m *Module) forEachExportedEntry(visit func(ext string, set func(defInfo), frag *Fragment, targetRaw string, isAlias bool)) {
	for _, f := range m.frags {
		f := f
		for raw, d := range f.defs {
			if d.deleted || d.local {
				continue
			}
			raw := raw
			visit(d.ext, func(nd defInfo) { f.defs[raw] = nd }, f, raw, false)
		}
		for id, a := range f.aliases {
			if a.deleted || a.local {
				continue
			}
			id := id
			ai := a
			visit(a.ext, func(nd defInfo) {
				ai.defInfo = nd
				f.aliases[id] = ai
			}, f, a.targetRaw, true)
		}
	}
}

// renameRefs rewrites every module reference from to name.
func (m *Module) renameRefs(from, to string) {
	for _, f := range m.frags {
		for raw, ext := range f.refs {
			if ext == from {
				f.refs[raw] = to
			}
		}
	}
}

// Restrict virtualizes bindings matching re: existing definitions are
// removed and references to them become unbound (available for a later
// merge to satisfy).
func (m *Module) Restrict(re *regexp.Regexp) *Module {
	out := m.clone()
	out.forEachExportedEntry(func(ext string, set func(defInfo), _ *Fragment, _ string, _ bool) {
		if re.MatchString(ext) {
			set(defInfo{ext: ext, deleted: true})
		}
	})
	return out
}

// Project is the complement of Restrict: it virtualizes all exported
// bindings except those matching re.
func (m *Module) Project(re *regexp.Regexp) *Module {
	out := m.clone()
	out.forEachExportedEntry(func(ext string, set func(defInfo), _ *Fragment, _ string, _ bool) {
		if !re.MatchString(ext) {
			set(defInfo{ext: ext, deleted: true})
		}
	})
	return out
}

// CopyAs duplicates the value of each definition matching re under the
// name produced by expanding template (which may use $1-style group
// references), leaving the original binding intact.
func (m *Module) CopyAs(re *regexp.Regexp, template string) (*Module, error) {
	out := m.clone()
	type add struct {
		f   *Fragment
		ext string
		raw string
	}
	var adds []add
	out.forEachExportedEntry(func(ext string, _ func(defInfo), f *Fragment, targetRaw string, _ bool) {
		if re.MatchString(ext) {
			newName := re.ReplaceAllString(ext, template)
			adds = append(adds, add{f, newName, targetRaw})
		}
	})
	for _, a := range adds {
		id := privName("alias$" + a.ext)
		a.f.aliases[id] = aliasInfo{defInfo: defInfo{ext: a.ext}, targetRaw: a.raw}
	}
	var dups []string
	for name, n := range out.exportedDefs() {
		if n > 1 {
			dups = append(dups, name)
		}
	}
	if len(dups) > 0 {
		sort.Strings(dups)
		return nil, fmt.Errorf("jigsaw: copy-as: name collision on %v", dups)
	}
	return out, nil
}

// Hide removes matching definitions from the exported symbol table,
// freezing any internal references to them: the definitions remain
// resolvable inside the module under a private name.
func (m *Module) Hide(re *regexp.Regexp) *Module {
	out := m.clone()
	out.privatize(re, false)
	return out
}

// Show is the complement of Hide: it hides all exported definitions
// except those matching re.
func (m *Module) Show(re *regexp.Regexp) *Module {
	out := m.clone()
	out.privatizeComplement(re)
	return out
}

// Freeze makes matching bindings permanent: internal references are
// bound to the current definition (surviving later overrides), while
// the name remains exported.
func (m *Module) Freeze(re *regexp.Regexp) *Module {
	out := m.clone()
	out.privatize(re, true)
	return out
}

// privatize renames matching exported entries to private names,
// rewrites internal references accordingly, and (for freeze) re-adds
// an exported alias under the original name.
func (m *Module) privatize(re *regexp.Regexp, keepExported bool) {
	type job struct {
		ext  string
		set  func(defInfo)
		f    *Fragment
		raw  string
		info defInfo
	}
	var jobs []job
	m.forEachExportedEntry(func(ext string, set func(defInfo), f *Fragment, targetRaw string, _ bool) {
		if re.MatchString(ext) {
			jobs = append(jobs, job{ext, set, f, targetRaw, defInfo{ext: ext}})
		}
	})
	for _, j := range jobs {
		p := privName(j.ext)
		j.set(defInfo{ext: p, local: true})
		m.renameRefs(j.ext, p)
		if keepExported {
			id := privName("alias$" + j.ext)
			j.f.aliases[id] = aliasInfo{defInfo: defInfo{ext: j.ext}, targetRaw: j.raw}
		}
	}
}

func (m *Module) privatizeComplement(re *regexp.Regexp) {
	neg := func(ext string) bool { return !re.MatchString(ext) }
	type job struct {
		ext string
		set func(defInfo)
	}
	var jobs []job
	m.forEachExportedEntry(func(ext string, set func(defInfo), _ *Fragment, _ string, _ bool) {
		if neg(ext) {
			jobs = append(jobs, job{ext, set})
		}
	})
	for _, j := range jobs {
		p := privName(j.ext)
		j.set(defInfo{ext: p, local: true})
		m.renameRefs(j.ext, p)
	}
}

// RenameMode selects which occurrences Rename rewrites.
type RenameMode int

// Rename modes (the paper: "Names may be references, definitions, or
// both").
const (
	RenameBoth RenameMode = iota
	RenameDefs
	RenameRefs
)

// Rename systematically changes names matching re to the expansion of
// template, in definitions, references, or both.
func (m *Module) Rename(re *regexp.Regexp, template string, mode RenameMode) *Module {
	out := m.clone()
	if mode != RenameRefs {
		out.forEachExportedEntry(func(ext string, set func(defInfo), _ *Fragment, _ string, _ bool) {
			if re.MatchString(ext) {
				set(defInfo{ext: re.ReplaceAllString(ext, template)})
			}
		})
	}
	if mode != RenameDefs {
		for _, f := range out.frags {
			for raw, ext := range f.refs {
				if re.MatchString(ext) {
					f.refs[raw] = re.ReplaceAllString(ext, template)
				}
			}
		}
	}
	return out
}
