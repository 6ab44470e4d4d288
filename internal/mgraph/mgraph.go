// Package mgraph implements OMOS's executable operation graphs
// (§3.2–3.4): the compiled form of a blueprint.  Executing an m-graph
// produces a module (set of fragments under a namespace view) plus the
// library dependencies and address constraints the server needs to
// finish instantiation.
//
// Specialization (§3.4) transforms graphs before execution: the same
// base meta-object yields a self-contained fixed-address library, a
// dynamically loaded library, a monitored implementation, or a
// reordered one, depending on the specialization applied.
package mgraph

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"regexp"
	"sort"
	"strings"
	"unsafe"

	"omos/internal/constraint"
	"omos/internal/jigsaw"
	"omos/internal/obj"
)

// Spec is a library specialization request.
type Spec struct {
	// Kind selects the implementation style: "lib-static"
	// (self-contained, §4.1), "lib-dynamic" (partial image, §4.2).
	Kind string
	// Prefs are address placement preferences (lib-constrained).
	Prefs []constraint.Pref
}

// Hash returns a stable digest of the spec.
func (s Spec) Hash() string {
	var sb strings.Builder
	sb.WriteString(s.Kind)
	for _, p := range s.Prefs {
		fmt.Fprintf(&sb, "|%c=%#x", p.Seg, p.Addr)
	}
	return sb.String()
}

// LibDep is a library reference discovered during evaluation: the
// client does not inline the library's fragments; the server
// instantiates the library separately (cached, shared) and resolves
// the client against its exported symbols.
type LibDep struct {
	// Path is the library meta-object's namespace path.
	Path string
	// Spec is the specialization under which the library was
	// referenced.
	Spec Spec
}

// Value is the result of executing an m-graph.
type Value struct {
	// Module holds the inline fragments (nil for pure library lists).
	Module *jigsaw.Module
	// Libs are library dependencies in reference order.
	Libs []LibDep
	// Prefs are address preferences attached by constrain operators.
	Prefs []constraint.Pref
}

// Meta is a named meta-object: a stored blueprint with its class
// attributes.  The server's namespace maps paths to these.
type Meta struct {
	Path string
	// Root is the construction graph.
	Root Node
	// IsLibrary marks a library-class meta-object: references to it
	// become LibDeps rather than inline expansions.
	IsLibrary bool
	// DefaultSpec is the specialization applied when a client merges
	// the library without an explicit specialize operator.
	DefaultSpec Spec
	// SrcHash digests the defining blueprint for cache keys.
	SrcHash string
	// Src retains the defining blueprint text so the meta-object can
	// be exported to another OMOS server (network consolidation, §10).
	Src string
}

// Context supplies namespace and compiler services during evaluation.
// The server package implements it.
type Context interface {
	// LookupObject returns the relocatable object stored at path.
	LookupObject(path string) (*obj.Object, error)
	// LookupMeta returns the meta-object at path, or nil if path names
	// a raw object (or nothing).
	LookupMeta(path string) (*Meta, error)
	// ContentHash returns a digest of whatever path refers to,
	// covering its transitive content (for cache keys).
	ContentHash(path string) (string, error)
	// Compile translates source text into relocatable objects
	// (the `source` operator).
	Compile(lang, text string) ([]*obj.Object, error)
	// Specialize applies a server-registered specialization kind
	// (e.g. "monitor") to an evaluated value.
	Specialize(kind string, args []string, v *Value) (*Value, error)
}

// OptionalResolver is implemented by evaluation contexts that can
// answer availability queries for optional imports: whether a path
// currently resolves to a usable definition.  Contexts without it
// treat every optional import as available (plain-ref semantics).
type OptionalResolver interface {
	OptionalAvailable(path string) bool
}

// StubRecorder is implemented by contexts that count degraded
// optional imports (stub servings) for observability.
type StubRecorder interface {
	RecordOptionalStub(path string)
}

// Fanout is implemented by evaluation contexts that can evaluate a
// node's operands concurrently.  RunAll runs every task and returns
// when all have completed; a panic in a task is re-raised on the
// caller.  Contexts without it evaluate operands serially.
type Fanout interface {
	RunAll(tasks []func())
}

// Node is one m-graph operation.
type Node interface {
	// Eval executes the subgraph.
	Eval(ctx Context) (*Value, error)
	// Hash returns a stable digest of the subgraph including the
	// content of everything it references.  It memoizes nothing: the
	// context's ContentHash is where a caller keeps results.
	Hash(ctx Context) (string, error)
	// String renders the node for diagnostics.
	String() string
}

// Digest hashes parts, each ended by a zero byte, to 24 hex digits:
// every m-graph hash and every server cache key is one.  A part is
// written as the bytes it is, which Write neither keeps nor changes: a
// []byte conversion would copy it, and a part can be a whole source
// text.
func Digest(parts ...string) string {
	h := sha256.New()
	for _, p := range parts {
		h.Write(unsafe.Slice(unsafe.StringData(p), len(p)))
		h.Write(partEnd)
	}
	return hex.EncodeToString(h.Sum(nil))[:24]
}

var partEnd = []byte{0}

// mergeValues combines child values (shared by merge/override paths).
func mergeValues(vals []*Value, combine func(mods []*jigsaw.Module) (*jigsaw.Module, error)) (*Value, error) {
	out := &Value{}
	var mods []*jigsaw.Module
	for _, v := range vals {
		if v.Module != nil {
			mods = append(mods, v.Module)
		}
		out.Libs = append(out.Libs, v.Libs...)
		out.Prefs = append(out.Prefs, v.Prefs...)
	}
	if len(mods) > 0 {
		m, err := combine(mods)
		if err != nil {
			return nil, err
		}
		out.Module = m
	}
	return out, nil
}

// ---- merge ----

// MergeNode binds definitions in each operand to references in the
// others; duplicate definitions are an error.
type MergeNode struct {
	Children []Node
}

// Eval implements Node.
func (n *MergeNode) Eval(ctx Context) (*Value, error) {
	vals, err := evalAll(ctx, n.Children)
	if err != nil {
		return nil, err
	}
	return mergeValues(vals, func(mods []*jigsaw.Module) (*jigsaw.Module, error) {
		return jigsaw.Merge(mods...)
	})
}

// Hash implements Node.
func (n *MergeNode) Hash(ctx Context) (string, error) {
	return hashOp(ctx, "merge", nil, n.Children)
}

// String renders the node in blueprint syntax.
func (n *MergeNode) String() string { return opString("merge", nil, n.Children) }

// ---- override ----

// OverrideNode merges two operands resolving conflicts in favor of the
// second.
type OverrideNode struct {
	Base, Over Node
}

// Eval implements Node.
func (n *OverrideNode) Eval(ctx Context) (*Value, error) {
	bv, err := n.Base.Eval(ctx)
	if err != nil {
		return nil, err
	}
	ov, err := n.Over.Eval(ctx)
	if err != nil {
		return nil, err
	}
	if bv.Module == nil || ov.Module == nil {
		return nil, fmt.Errorf("mgraph: override requires module operands")
	}
	m, err := jigsaw.Override(bv.Module, ov.Module)
	if err != nil {
		return nil, err
	}
	return &Value{
		Module: m,
		Libs:   append(append([]LibDep(nil), bv.Libs...), ov.Libs...),
		Prefs:  append(append([]constraint.Pref(nil), bv.Prefs...), ov.Prefs...),
	}, nil
}

// Hash implements Node.
func (n *OverrideNode) Hash(ctx Context) (string, error) {
	return hashOp(ctx, "override", nil, []Node{n.Base, n.Over})
}

// String renders the node in blueprint syntax.
func (n *OverrideNode) String() string { return opString("override", nil, []Node{n.Base, n.Over}) }

// ---- regex namespace operators ----

// NamespaceOp enumerates single-operand regex operators.
type NamespaceOp string

// Namespace operator names.
const (
	OpRestrict NamespaceOp = "restrict"
	OpProject  NamespaceOp = "project"
	OpHide     NamespaceOp = "hide"
	OpShow     NamespaceOp = "show"
	OpFreeze   NamespaceOp = "freeze"
)

// RegexNode applies a single-regex namespace operator to its child.
type RegexNode struct {
	Op    NamespaceOp
	Regex string
	Child Node

	re *regexp.Regexp
}

// NewRegexNode validates the pattern eagerly.
func NewRegexNode(op NamespaceOp, pattern string, child Node) (*RegexNode, error) {
	re, err := regexp.Compile(pattern)
	if err != nil {
		return nil, fmt.Errorf("mgraph: %s: bad pattern %q: %v", op, pattern, err)
	}
	return &RegexNode{Op: op, Regex: pattern, Child: child, re: re}, nil
}

// Eval implements Node.
func (n *RegexNode) Eval(ctx Context) (*Value, error) {
	v, err := n.Child.Eval(ctx)
	if err != nil {
		return nil, err
	}
	if v.Module == nil {
		return nil, fmt.Errorf("mgraph: %s: operand has no module", n.Op)
	}
	out := *v
	switch n.Op {
	case OpRestrict:
		out.Module = v.Module.Restrict(n.re)
	case OpProject:
		out.Module = v.Module.Project(n.re)
	case OpHide:
		out.Module = v.Module.Hide(n.re)
	case OpShow:
		out.Module = v.Module.Show(n.re)
	case OpFreeze:
		out.Module = v.Module.Freeze(n.re)
	default:
		return nil, fmt.Errorf("mgraph: unknown namespace op %q", n.Op)
	}
	return &out, nil
}

// Hash implements Node.
func (n *RegexNode) Hash(ctx Context) (string, error) {
	return hashOp(ctx, string(n.Op), []string{n.Regex}, []Node{n.Child})
}

// String renders the node in blueprint syntax.
func (n *RegexNode) String() string {
	return opString(string(n.Op), []string{n.Regex}, []Node{n.Child})
}

// ---- copy-as / rename ----

// CopyAsNode duplicates matching definitions under a new name.
type CopyAsNode struct {
	Regex, NewName string
	Child          Node
	re             *regexp.Regexp
}

// NewCopyAsNode validates the pattern eagerly.
func NewCopyAsNode(pattern, newName string, child Node) (*CopyAsNode, error) {
	re, err := regexp.Compile(pattern)
	if err != nil {
		return nil, fmt.Errorf("mgraph: copy-as: bad pattern %q: %v", pattern, err)
	}
	return &CopyAsNode{Regex: pattern, NewName: newName, Child: child, re: re}, nil
}

// Eval implements Node.
func (n *CopyAsNode) Eval(ctx Context) (*Value, error) {
	v, err := n.Child.Eval(ctx)
	if err != nil {
		return nil, err
	}
	if v.Module == nil {
		return nil, fmt.Errorf("mgraph: copy-as: operand has no module")
	}
	m, err := v.Module.CopyAs(n.re, n.NewName)
	if err != nil {
		return nil, err
	}
	out := *v
	out.Module = m
	return &out, nil
}

// Hash implements Node.
func (n *CopyAsNode) Hash(ctx Context) (string, error) {
	return hashOp(ctx, "copy-as", []string{n.Regex, n.NewName}, []Node{n.Child})
}

// String renders the node in blueprint syntax.
func (n *CopyAsNode) String() string {
	return opString("copy_as", []string{n.Regex, n.NewName}, []Node{n.Child})
}

// RenameNode systematically changes names.
type RenameNode struct {
	Regex, Template string
	Mode            jigsaw.RenameMode
	Child           Node
	re              *regexp.Regexp
}

// NewRenameNode validates the pattern eagerly.
func NewRenameNode(pattern, template string, mode jigsaw.RenameMode, child Node) (*RenameNode, error) {
	re, err := regexp.Compile(pattern)
	if err != nil {
		return nil, fmt.Errorf("mgraph: rename: bad pattern %q: %v", pattern, err)
	}
	return &RenameNode{Regex: pattern, Template: template, Mode: mode, Child: child, re: re}, nil
}

// Eval implements Node.
func (n *RenameNode) Eval(ctx Context) (*Value, error) {
	v, err := n.Child.Eval(ctx)
	if err != nil {
		return nil, err
	}
	if v.Module == nil {
		return nil, fmt.Errorf("mgraph: rename: operand has no module")
	}
	out := *v
	out.Module = v.Module.Rename(n.re, n.Template, n.Mode)
	return &out, nil
}

// Hash implements Node.
func (n *RenameNode) Hash(ctx Context) (string, error) {
	return hashOp(ctx, fmt.Sprintf("rename%d", n.Mode), []string{n.Regex, n.Template}, []Node{n.Child})
}

// String renders the node in blueprint syntax.
func (n *RenameNode) String() string {
	return opString("rename", []string{n.Regex, n.Template}, []Node{n.Child})
}

// ---- leaves ----

// RefNode references a namespace path: a raw object (inlined as a
// fragment) or a meta-object (library deps or expanded graphs).
type RefNode struct {
	Path string
}

// Eval implements Node.
func (n *RefNode) Eval(ctx Context) (*Value, error) {
	meta, err := ctx.LookupMeta(n.Path)
	if err != nil {
		return nil, err
	}
	if meta != nil {
		if meta.IsLibrary {
			return &Value{Libs: []LibDep{{Path: n.Path, Spec: meta.DefaultSpec}}}, nil
		}
		return meta.Root.Eval(ctx)
	}
	o, err := ctx.LookupObject(n.Path)
	if err != nil {
		return nil, err
	}
	m, err := jigsaw.NewModule(o)
	if err != nil {
		return nil, err
	}
	return &Value{Module: m}, nil
}

// Hash implements Node.
func (n *RefNode) Hash(ctx Context) (string, error) {
	ch, err := ctx.ContentHash(n.Path)
	if err != nil {
		return "", err
	}
	return Digest("ref", n.Path, ch), nil
}

// String renders the node in blueprint syntax.
func (n *RefNode) String() string { return n.Path }

// OptionalNode is an availability-checked reference (the `optional`
// operator): when the target resolves, it behaves exactly like a
// plain reference; when the target is absent — or mid-rollback during
// a live upgrade — it degrades to its fallback expression (or an
// empty contribution) instead of failing the build.  Availability is
// folded into the hash, so the degraded and full builds occupy
// distinct cache entries and an availability flip naturally rebuilds.
type OptionalNode struct {
	Path     string
	Fallback Node // nil: degrade to an empty contribution
}

// Eval implements Node.
func (n *OptionalNode) Eval(ctx Context) (*Value, error) {
	avail := true
	if r, ok := ctx.(OptionalResolver); ok {
		avail = r.OptionalAvailable(n.Path)
	}
	if avail {
		ref := RefNode{Path: n.Path}
		return ref.Eval(ctx)
	}
	if s, ok := ctx.(StubRecorder); ok {
		s.RecordOptionalStub(n.Path)
	}
	if n.Fallback != nil {
		return n.Fallback.Eval(ctx)
	}
	return &Value{}, nil
}

// Hash implements Node.
func (n *OptionalNode) Hash(ctx Context) (string, error) {
	avail := true
	if r, ok := ctx.(OptionalResolver); ok {
		avail = r.OptionalAvailable(n.Path)
	}
	if avail {
		ch, err := ctx.ContentHash(n.Path)
		if err != nil {
			return "", err
		}
		return Digest("optional", "present", n.Path, ch), nil
	}
	fh := "none"
	if n.Fallback != nil {
		h, err := n.Fallback.Hash(ctx)
		if err != nil {
			return "", err
		}
		fh = h
	}
	return Digest("optional", "absent", n.Path, fh), nil
}

// String renders the node in blueprint syntax.
func (n *OptionalNode) String() string {
	if n.Fallback == nil {
		return fmt.Sprintf("(optional %s)", n.Path)
	}
	return fmt.Sprintf("(optional %s %s)", n.Path, n.Fallback)
}

// SourceNode compiles source text into fragments (the `source`
// operator).
type SourceNode struct {
	Lang, Text string
}

// Eval implements Node.
func (n *SourceNode) Eval(ctx Context) (*Value, error) {
	objs, err := ctx.Compile(n.Lang, n.Text)
	if err != nil {
		return nil, err
	}
	m, err := jigsaw.NewModule(objs...)
	if err != nil {
		return nil, err
	}
	return &Value{Module: m}, nil
}

// Hash implements Node.
func (n *SourceNode) Hash(ctx Context) (string, error) {
	return Digest("source", n.Lang, n.Text), nil
}

// String renders the node in blueprint syntax.
func (n *SourceNode) String() string { return fmt.Sprintf("(source %q %q)", n.Lang, n.Text) }

// ---- constrain / specialize ----

// ConstrainNode attaches address preferences to its child (the
// `constrain` operator): library children get placement preferences;
// plain modules carry the preference up to the server's final link.
type ConstrainNode struct {
	Prefs []constraint.Pref
	Child Node
}

// Eval implements Node.
func (n *ConstrainNode) Eval(ctx Context) (*Value, error) {
	v, err := n.Child.Eval(ctx)
	if err != nil {
		return nil, err
	}
	out := *v
	if len(v.Libs) > 0 && v.Module == nil {
		// Pure library reference: constrain the library placement.
		libs := append([]LibDep(nil), v.Libs...)
		for i := range libs {
			libs[i].Spec.Prefs = append(append([]constraint.Pref(nil), libs[i].Spec.Prefs...), n.Prefs...)
		}
		out.Libs = libs
		return &out, nil
	}
	out.Prefs = append(append([]constraint.Pref(nil), v.Prefs...), n.Prefs...)
	return &out, nil
}

// Hash implements Node.
func (n *ConstrainNode) Hash(ctx Context) (string, error) {
	args := make([]string, 0, len(n.Prefs))
	for _, p := range n.Prefs {
		args = append(args, fmt.Sprintf("%c=%#x", p.Seg, p.Addr))
	}
	return hashOp(ctx, "constrain", args, []Node{n.Child})
}

// String renders the node in blueprint syntax.
func (n *ConstrainNode) String() string {
	args := make([]string, 0, len(n.Prefs))
	for _, p := range n.Prefs {
		args = append(args, fmt.Sprintf("%c=%#x", p.Seg, p.Addr))
	}
	return opString("constrain", args, []Node{n.Child})
}

// SpecializeNode transforms its child per a specialization kind.
// Library-style kinds ("lib-static", "lib-dynamic", "lib-constrained")
// adjust library deps; other kinds are delegated to server-registered
// specializers (e.g. "monitor", "reorder").
type SpecializeNode struct {
	Kind  string
	Args  []string
	Prefs []constraint.Pref
	Child Node
}

// Eval implements Node.
func (n *SpecializeNode) Eval(ctx Context) (*Value, error) {
	v, err := n.Child.Eval(ctx)
	if err != nil {
		return nil, err
	}
	switch n.Kind {
	case "lib-static", "lib-dynamic", "lib-branch-table":
		if len(v.Libs) == 0 {
			return nil, fmt.Errorf("mgraph: specialize %q: operand is not a library reference", n.Kind)
		}
		out := *v
		libs := append([]LibDep(nil), v.Libs...)
		for i := range libs {
			libs[i].Spec.Kind = n.Kind
		}
		out.Libs = libs
		return &out, nil
	case "lib-constrained":
		if len(v.Libs) == 0 {
			return nil, fmt.Errorf("mgraph: specialize %q: operand is not a library reference", n.Kind)
		}
		out := *v
		libs := append([]LibDep(nil), v.Libs...)
		for i := range libs {
			libs[i].Spec.Kind = "lib-static"
			libs[i].Spec.Prefs = append(append([]constraint.Pref(nil), libs[i].Spec.Prefs...), n.Prefs...)
		}
		out.Libs = libs
		return &out, nil
	default:
		return ctx.Specialize(n.Kind, n.Args, v)
	}
}

// Hash implements Node.
func (n *SpecializeNode) Hash(ctx Context) (string, error) {
	args := append([]string{n.Kind}, n.Args...)
	for _, p := range n.Prefs {
		args = append(args, fmt.Sprintf("%c=%#x", p.Seg, p.Addr))
	}
	return hashOp(ctx, "specialize", args, []Node{n.Child})
}

// String renders the node in blueprint syntax.
func (n *SpecializeNode) String() string {
	return opString("specialize", append([]string{n.Kind}, n.Args...), []Node{n.Child})
}

// InitializersNode synthesizes a constructor-calling routine: it scans
// the child's exported definitions for names matching the __ctor_
// prefix and generates __do_global_ctors invoking each in sorted
// order — the role the paper's `initializers` operator plays for C++
// static initializers.
type InitializersNode struct {
	Child Node
}

// CtorPrefix marks constructor functions gathered by InitializersNode.
const CtorPrefix = "__ctor_"

// Eval implements Node.
func (n *InitializersNode) Eval(ctx Context) (*Value, error) {
	v, err := n.Child.Eval(ctx)
	if err != nil {
		return nil, err
	}
	if v.Module == nil {
		return nil, fmt.Errorf("mgraph: initializers: operand has no module")
	}
	var ctors []string
	for _, name := range v.Module.Defined() {
		if strings.HasPrefix(name, CtorPrefix) {
			ctors = append(ctors, name)
		}
	}
	sort.Strings(ctors)
	var src strings.Builder
	src.WriteString("int __do_global_ctors() {\n")
	for _, c := range ctors {
		fmt.Fprintf(&src, "    %s();\n", c)
	}
	src.WriteString("    return 0;\n}\n")
	objs, err := ctx.Compile("c", src.String())
	if err != nil {
		return nil, err
	}
	initMod, err := jigsaw.NewModule(objs...)
	if err != nil {
		return nil, err
	}
	merged, err := jigsaw.Merge(v.Module, initMod)
	if err != nil {
		return nil, err
	}
	out := *v
	out.Module = merged
	return &out, nil
}

// Hash implements Node.
func (n *InitializersNode) Hash(ctx Context) (string, error) {
	return hashOp(ctx, "initializers", nil, []Node{n.Child})
}

// String renders the node in blueprint syntax.
func (n *InitializersNode) String() string { return opString("initializers", nil, []Node{n.Child}) }

// ---- helpers ----

// evalAll evaluates children in operand order, or concurrently through
// the context's Fanout.  Either way results are joined by operand
// index and the first error by operand order wins.
func evalAll(ctx Context, children []Node) ([]*Value, error) {
	out := make([]*Value, len(children))
	f, ok := ctx.(Fanout)
	if !ok || len(children) < 2 {
		for i, c := range children {
			v, err := c.Eval(ctx)
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		return out, nil
	}
	errs := make([]error, len(children))
	tasks := make([]func(), len(children))
	for i, c := range children {
		i, c := i, c
		tasks[i] = func() { out[i], errs[i] = c.Eval(ctx) }
	}
	f.RunAll(tasks)
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

func hashOp(ctx Context, op string, args []string, children []Node) (string, error) {
	parts := append([]string{op}, args...)
	for _, c := range children {
		h, err := c.Hash(ctx)
		if err != nil {
			return "", err
		}
		parts = append(parts, h)
	}
	return Digest(parts...), nil
}

func opString(op string, args []string, children []Node) string {
	var sb strings.Builder
	sb.WriteByte('(')
	sb.WriteString(op)
	for _, a := range args {
		fmt.Fprintf(&sb, " %q", a)
	}
	for _, c := range children {
		sb.WriteByte(' ')
		sb.WriteString(c.String())
	}
	sb.WriteByte(')')
	return sb.String()
}
