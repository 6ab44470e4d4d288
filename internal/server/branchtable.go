package server

import (
	"encoding/binary"
	"fmt"
	"sort"
	"strings"

	"omos/internal/asm"
	"omos/internal/jigsaw"
	"omos/internal/link"
	"omos/internal/obj"
	"omos/internal/osim"
	"omos/internal/vm"
)

// btSlotPrefix names the branch-table slot symbols inside a
// lib-branch-table image.
const btSlotPrefix = "$bt$slot$"

// routeUpward is planLibrary's step for the "lib-branch-table"
// specialization of §4.1: upward references (library calls to
// procedures the client must supply) are routed through per-process
// data slots, so one cached text image serves every application
// instead of "a new library image for each different application".
// It binds the plan's externs directly and merges the indirection
// stubs into the plan's module.  The plan keeps no content key: the
// per-process slot patching is placement metadata a slide does not
// model, so these libraries stay out of the rebase and mesh paths.
func (pl *plan) routeUpward(path string) error {
	pl.bound = externsOf(pl.libs)
	for _, u := range pl.module.Undefined() {
		if _, ok := pl.bound[u]; !ok {
			pl.upward = append(pl.upward, u)
		}
	}
	sort.Strings(pl.upward)
	if err := checkCallOnly(pl.module, pl.upward); err != nil {
		return fmt.Errorf("server: %s: %w", path, err)
	}
	if len(pl.upward) == 0 {
		return nil
	}
	stubObj, err := genBTStubs(pl.upward)
	if err != nil {
		return err
	}
	sm, err := jigsaw.NewModule(stubObj)
	if err != nil {
		return err
	}
	pl.module, err = jigsaw.Merge(pl.module, sm)
	return err
}

// slotsIn finds the linked addresses of the plan's branch-table slots
// (nil for every other kind of image).
func (pl *plan) slotsIn(res *link.Result) (map[string]uint64, error) {
	if len(pl.upward) == 0 {
		return nil, nil
	}
	slots := make(map[string]uint64, len(pl.upward))
	for _, f := range pl.upward {
		slot, ok := res.Syms[btSlotPrefix+f]
		if !ok {
			return nil, fmt.Errorf("server: %s: branch-table slot for %s missing", definerPath(pl.name), f)
		}
		slots[f] = slot
	}
	return slots, nil
}

// checkCallOnly enforces the paper's constraint: upward references may
// only be procedure calls.  Upward *data* references would break
// sharing (§4.1's "definitions of variables must be made in the
// library furthest downstream").
func checkCallOnly(m *jigsaw.Module, upward []string) error {
	if len(upward) == 0 {
		return nil
	}
	up := map[string]bool{}
	for _, u := range upward {
		up[u] = true
	}
	for _, lv := range m.LinkViews() {
		for _, r := range lv.Obj.Relocs {
			if !up[lv.RefExt[r.Symbol]] {
				continue
			}
			if r.Section != obj.SecText || r.Offset < vm.ImmOffset {
				return fmt.Errorf("upward data reference to %q: shared variables must live in the "+
					"furthest-downstream library (§4.1)", lv.RefExt[r.Symbol])
			}
			op := vm.Op(lv.Obj.Text[r.Offset-vm.ImmOffset])
			if op != vm.CALL && op != vm.CALLPC {
				return fmt.Errorf("upward reference to %q is not a procedure call (site opcode %s); "+
					"only calls can dispatch via the branch table (§4.1)", lv.RefExt[r.Symbol], op)
			}
		}
	}
	return nil
}

// genBTStubs generates the indirection stubs: each upward symbol F is
// defined as a jump through a per-process data slot that MapInstance
// patches with the client's binding.
func genBTStubs(upward []string) (*obj.Object, error) {
	var sb strings.Builder
	sb.WriteString(".text\n")
	for _, f := range upward {
		fmt.Fprintf(&sb, `%[1]s:
    leapc r10, =%[2]s%[1]s
    ld r12, [r10]
    jmpr r12
`, f, btSlotPrefix)
	}
	sb.WriteString(".data\n")
	for _, f := range upward {
		fmt.Fprintf(&sb, ".align 8\n%s%s:\n    .quad 0\n", btSlotPrefix, f)
	}
	o, err := asm.Assemble("bt-stubs", sb.String())
	if err != nil {
		return nil, fmt.Errorf("server: assembling branch-table stubs: %w", err)
	}
	return o, nil
}

// patchBranchTables resolves and pokes every mapped library's upward
// slots against the client image (and its other libraries), after all
// mappings are in place.  Per process, per map — which is exactly the
// point: the text pages stay shared.
func (s *Server) patchBranchTables(p *osim.Process, root *Instance) error {
	var all []*Instance
	seen := map[string]bool{}
	var walk func(in *Instance)
	walk = func(in *Instance) {
		if seen[in.Key] {
			return
		}
		seen[in.Key] = true
		all = append(all, in)
		for _, li := range in.Libs {
			walk(li)
		}
	}
	walk(root)

	resolve := func(name string, owner *Instance) (uint64, bool) {
		for _, in := range all {
			if in == owner {
				continue // the stub's own definition must not satisfy itself
			}
			if a, ok := in.Res.Image.Syms[name]; ok {
				return a, true
			}
		}
		return 0, false
	}
	for _, in := range all {
		if len(in.BTSlots) == 0 {
			continue
		}
		for name, slot := range in.BTSlots {
			addr, ok := resolve(name, in)
			if !ok {
				return fmt.Errorf("server: %s: upward reference %q not supplied by the client", in.Name, name)
			}
			var b [8]byte
			binary.LittleEndian.PutUint64(b[:], addr)
			if err := p.AS.Poke(slot, b[:]); err != nil {
				return err
			}
			p.ChargeServer(s.kern.Cost.DynRelocApply)
		}
	}
	return nil
}
