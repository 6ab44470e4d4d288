package jigsaw

import (
	"fmt"
	"math/rand"
	"reflect"
	"regexp"
	"sort"
	"testing"
	"testing/quick"

	"omos/internal/obj"
)

// mkObj builds an object defining the given globals (as zero-filled
// functions) and referencing refs.
func mkObj(t testing.TB, name string, defs, refs []string) *obj.Object {
	t.Helper()
	o := &obj.Object{Name: name, Text: make([]byte, 16*(len(defs)+1))}
	for i, d := range defs {
		o.Syms = append(o.Syms, obj.Symbol{
			Name: d, Kind: obj.SymFunc, Defined: true,
			Section: obj.SecText, Offset: uint64(16 * i), Size: 16,
		})
	}
	for i, r := range refs {
		o.Syms = append(o.Syms, obj.Symbol{Name: r})
		o.Relocs = append(o.Relocs, obj.Reloc{
			Section: obj.SecText, Offset: uint64(16*len(defs) + i), Symbol: r, Kind: obj.RelAbs64,
		})
	}
	if len(refs) > 8 {
		t.Fatal("too many refs for the reloc area")
	}
	if err := o.Validate(); err != nil {
		t.Fatal(err)
	}
	return o
}

func mod(t testing.TB, objs ...*obj.Object) *Module {
	t.Helper()
	m, err := NewModule(objs...)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func strSetEq(a, b []string) bool {
	x := append([]string(nil), a...)
	y := append([]string(nil), b...)
	sort.Strings(x)
	sort.Strings(y)
	return reflect.DeepEqual(x, y)
}

func TestMergeDuplicateError(t *testing.T) {
	a := mod(t, mkObj(t, "a", []string{"f"}, nil))
	b := mod(t, mkObj(t, "b", []string{"f"}, nil))
	if _, err := Merge(a, b); err == nil {
		t.Fatal("duplicate definition accepted")
	}
}

func TestMergeBindsAcrossOperands(t *testing.T) {
	a := mod(t, mkObj(t, "a", []string{"f"}, []string{"g"}))
	b := mod(t, mkObj(t, "b", []string{"g"}, nil))
	m, err := Merge(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Undefined(); len(got) != 0 {
		t.Fatalf("undefined = %v", got)
	}
	if !strSetEq(m.Defined(), []string{"f", "g"}) {
		t.Fatalf("defined = %v", m.Defined())
	}
}

func TestOperatorsAreFunctional(t *testing.T) {
	base := mod(t, mkObj(t, "a", []string{"f", "g"}, nil))
	before := base.Defined()
	_ = base.Restrict(regexp.MustCompile("^f$"))
	_ = base.Hide(regexp.MustCompile("^g$"))
	_, _ = base.CopyAs(regexp.MustCompile("^f$"), "h")
	if !strSetEq(base.Defined(), before) {
		t.Fatal("operators mutated the operand")
	}
}

// randSyms generates a deterministic symbol population.
func randSyms(r *rand.Rand) []string {
	n := 2 + r.Intn(8)
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("sym_%c%d", 'a'+r.Intn(4), i)
	}
	return out
}

// TestRestrictProjectComplement: restrict removes matching exported
// defs; project removes the complement.  Together they partition.
func TestRestrictProjectComplement(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		syms := randSyms(r)
		m := mod(t, mkObj(t, "o", syms, nil))
		re := regexp.MustCompile("_a") // matches a subset
		restricted := m.Restrict(re).Defined()
		projected := m.Project(re).Defined()
		union := append(append([]string(nil), restricted...), projected...)
		if !strSetEq(union, syms) {
			t.Logf("partition broken: %v + %v != %v", restricted, projected, syms)
			return false
		}
		for _, s := range restricted {
			if re.MatchString(s) {
				return false
			}
		}
		for _, s := range projected {
			if !re.MatchString(s) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestHideShowComplement: hide and show partition the namespace the
// same way, but hidden definitions remain resolvable inside.
func TestHideShowComplement(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		syms := randSyms(r)
		m := mod(t, mkObj(t, "o", syms, nil))
		re := regexp.MustCompile("_b")
		hidden := m.Hide(re).Defined()
		shown := m.Show(re).Defined()
		union := append(append([]string(nil), hidden...), shown...)
		if !strSetEq(union, syms) {
			return false
		}
		// Hiding must not create undefined references.
		if len(m.Hide(re).Undefined()) != len(m.Undefined()) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestRenameRoundTrip: renaming with a prefix and stripping it again
// restores the exported set.
func TestRenameRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		syms := randSyms(r)
		m := mod(t, mkObj(t, "o", syms, nil))
		pre := m.Rename(regexp.MustCompile("^(.*)$"), "pfx_$1", RenameBoth)
		back := pre.Rename(regexp.MustCompile("^pfx_(.*)$"), "$1", RenameBoth)
		return strSetEq(back.Defined(), m.Defined())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestMergeDefinedSetCommutes: the exported set of a merge is
// order-independent.
func TestMergeDefinedSetCommutes(t *testing.T) {
	a := mod(t, mkObj(t, "a", []string{"f1", "f2"}, []string{"g1"}))
	b := mod(t, mkObj(t, "b", []string{"g1", "g2"}, []string{"f1"}))
	ab, err := Merge(a, b)
	if err != nil {
		t.Fatal(err)
	}
	ba, err := Merge(b, a)
	if err != nil {
		t.Fatal(err)
	}
	if !strSetEq(ab.Defined(), ba.Defined()) {
		t.Fatalf("merge not commutative: %v vs %v", ab.Defined(), ba.Defined())
	}
	if !strSetEq(ab.Undefined(), ba.Undefined()) {
		t.Fatalf("undefined differ: %v vs %v", ab.Undefined(), ba.Undefined())
	}
}

func TestRestrictThenMergeRebinds(t *testing.T) {
	// The Figure 2 core: restrict a def, merge a replacement, refs
	// rebind to the replacement.
	app := mod(t, mkObj(t, "app", []string{"main"}, []string{"malloc"}))
	libc := mod(t, mkObj(t, "libc", []string{"malloc"}, nil))
	inner, err := Merge(app, libc)
	if err != nil {
		t.Fatal(err)
	}
	copied, err := inner.CopyAs(regexp.MustCompile("^malloc$"), "_REAL_malloc")
	if err != nil {
		t.Fatal(err)
	}
	restricted := copied.Restrict(regexp.MustCompile("^malloc$"))
	if got := restricted.Undefined(); !strSetEq(got, []string{"malloc"}) {
		t.Fatalf("undefined after restrict = %v", got)
	}
	wrapper := mod(t, mkObj(t, "wrap", []string{"malloc"}, []string{"_REAL_malloc"}))
	final, err := Merge(restricted, wrapper)
	if err != nil {
		t.Fatal(err)
	}
	if got := final.Undefined(); len(got) != 0 {
		t.Fatalf("undefined = %v", got)
	}
	hidden := final.Hide(regexp.MustCompile("^_REAL_malloc$"))
	if !strSetEq(hidden.Defined(), []string{"main", "malloc"}) {
		t.Fatalf("defined = %v", hidden.Defined())
	}
}

func TestCopyAsCollision(t *testing.T) {
	m := mod(t, mkObj(t, "a", []string{"f", "g"}, nil))
	if _, err := m.CopyAs(regexp.MustCompile("^f$"), "g"); err == nil {
		t.Fatal("copy-as collision accepted")
	}
}

func TestOverrideLeavesNoDuplicates(t *testing.T) {
	a := mod(t, mkObj(t, "a", []string{"f", "g"}, nil))
	b := mod(t, mkObj(t, "b", []string{"f"}, nil))
	m, err := Override(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !strSetEq(m.Defined(), []string{"f", "g"}) {
		t.Fatalf("defined = %v", m.Defined())
	}
}

func TestReorderFragments(t *testing.T) {
	a := mkObj(t, "a", []string{"fa"}, nil)
	b := mkObj(t, "b", []string{"fb"}, nil)
	c := mkObj(t, "c", []string{"fc"}, nil)
	m := mod(t, a, b, c)
	rank := map[string]int{"c": 0, "a": 1, "b": 2}
	sorted := m.ReorderFragments(func(o *obj.Object) int { return rank[o.Name] })
	names := []string{}
	for _, o := range sorted.Objects() {
		names = append(names, o.Name)
	}
	if !reflect.DeepEqual(names, []string{"c", "a", "b"}) {
		t.Fatalf("order = %v", names)
	}
	// Original untouched.
	orig := []string{}
	for _, o := range m.Objects() {
		orig = append(orig, o.Name)
	}
	if !reflect.DeepEqual(orig, []string{"a", "b", "c"}) {
		t.Fatalf("original mutated: %v", orig)
	}
}

func TestLocalSymbolsDoNotCollide(t *testing.T) {
	mk := func(name string) *obj.Object {
		o := &obj.Object{Name: name, Text: make([]byte, 32)}
		o.Syms = append(o.Syms,
			obj.Symbol{Name: ".Lhelper", Kind: obj.SymFunc, Bind: obj.BindLocal, Defined: true, Section: obj.SecText, Size: 16},
			obj.Symbol{Name: name + "_entry", Kind: obj.SymFunc, Defined: true, Section: obj.SecText, Offset: 16, Size: 16},
		)
		o.Relocs = append(o.Relocs, obj.Reloc{Section: obj.SecText, Offset: 20, Symbol: ".Lhelper", Kind: obj.RelAbs64})
		return o
	}
	m, err := Merge(mod(t, mk("a")), mod(t, mk("b")))
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Undefined(); len(got) != 0 {
		t.Fatalf("undefined = %v", got)
	}
	if !strSetEq(m.Defined(), []string{"a_entry", "b_entry"}) {
		t.Fatalf("defined = %v", m.Defined())
	}
}

// TestHideNumbersPrivateNamesInNameOrder: hiding several names numbers
// their private names by exported name, not in map order, so the same
// module hides to the same names (and `ofe hide` writes the same bytes)
// on every run.
func TestHideNumbersPrivateNamesInNameOrder(t *testing.T) {
	re := regexp.MustCompile(`^[abcd]$`)
	for i := 0; i < 20; i++ {
		m := mod(t, mkObj(t, "o", []string{"d", "b", "a", "c", "e"}, nil)).Hide(re)
		var last uint64
		for _, name := range []string{"a", "b", "c", "d"} {
			ext := m.frags[0].defs[name].ext
			var n uint64
			if _, err := fmt.Sscanf(ext, name+"$p%d", &n); err != nil {
				t.Fatalf("module %d: %s hid as %q: %v", i, name, ext, err)
			}
			if n <= last {
				t.Fatalf("module %d: %s hid as %q, numbered before the name ahead of it ($p%d)", i, name, ext, last)
			}
			last = n
		}
	}
}
