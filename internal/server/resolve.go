package server

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"omos/internal/fault"
	"omos/internal/mgraph"
	"omos/internal/refusal"
	"omos/internal/store"
)

// This file is the stable resolution cache and its enforcement layer.
//
// Symbol resolution — deciding, for every undefined symbol of an
// image, which library view defines it — is work the persistent
// server performs once and then owns.  The server records each
// resolution as a BindingTable: symbol -> (definer path, definer
// content key, library index), stamped with the namespace generation
// it was computed under and who resolved it.  A table is one *variant*
// of the image's resolution identity (path + source hash, independent
// of where libraries landed): the one resolved against the library
// content keys it records.  Each identity keeps its two newest, so a
// rebuild of an unchanged program — after eviction, a placement change,
// a library change undone, or a warm restart — replays its variant with
// direct definer lookups instead of searching the library list.
// Tables persist through the store codec, so a warm-restarted
// daemon resolves with zero symbol searches.
//
// The same tables make resolution *enforceable*:
//
//   - At link time each image with libraries pins their identities
//     (cache key, content key, store checksum) in Instance.Pins; the
//     pins are verified whenever the image is mapped or woken from the store,
//     and a mismatch — a swapped definer, a tampered blob — rejects
//     and quarantines the image instead of running it (a loader-level
//     defense against shared-object hijacking).
//   - Namespace mutations (Define/Remove/Mount/Unmount) that would
//     re-bind a live program's symbol to a different definer are
//     rejected with a typed *refusal.RebindError unless the caller
//     passes an explicit allow flag.
//
// `omos explain <sym>` walks every kept variant and answers "who binds
// this symbol, from which view, at which generation, and why".

// BindingTable is one image's recorded resolution.  Each binding is
// the audit record of who defined one symbol, in the store's own form
// (store.Binding), so a table persists and warm-loads as it is.  An
// installed table never changes (a replay reads it without a lock), so
// a new resolution installs a new table.
type BindingTable struct {
	Image    string   // image name the resolution was performed for
	Gen      uint64   // namespace version number at resolution
	Resolved string   // "search" (computed here) or "warm-load" (prior session)
	LibKeys  []string // content keys of the libraries, positional
	Bindings []store.Binding
	older    *BindingTable // the identity's other kept variant, if any
}

// bindKeyProg is a program's resolution identity: path + blueprint
// source hash.  Deliberately free of library identities, so a library
// content change finds the *same* identity and, with no variant for
// the new content, is counted as an invalidation rather than a miss.
func bindKeyProg(meta *mgraph.Meta) string {
	return mgraph.Digest("bind", meta.Path, meta.SrcHash)
}

// bindKeyLib is a library's resolution identity: path + source hash +
// specialization.
func bindKeyLib(dep mgraph.LibDep, meta *mgraph.Meta) string {
	return mgraph.Digest("bindlib", dep.Path, meta.SrcHash, dep.Spec.Hash())
}

// definerPath recovers the namespace path from a library instance
// name ("lib:/lib/libc" or "/lib/libc").
func definerPath(name string) string { return strings.TrimPrefix(name, "lib:") }

// resolveExterns resolves an image's undefined symbols und against its
// library list: by replaying the recorded binding table when one is
// valid (zero symbol searches — the warm path), by the classic
// first-definition-wins search otherwise.  The returned extern map is
// restricted to the undefined set either way, so the two paths bind
// identically and an incomplete resolution fails loudly in the link.
func (s *Server) resolveExterns(pl *plan, und []string, c charger) map[string]uint64 {
	if len(und) == 0 {
		return map[string]uint64{}
	}
	if ext, ok := s.cachedExterns(pl.bkey, und, pl.libs, c); ok {
		return ext
	}
	return s.searchExterns(pl.name, pl.bkey, und, pl.libs, c)
}

// cachedExterns replays a recorded binding table.  The fault site
// models a corrupt or missing binding record: an error (or a panic,
// contained here) degrades the lookup to a cache miss and resolution
// falls back to the full search — the cache is never load-bearing for
// correctness.
func (s *Server) cachedExterns(bindKey string, und []string, libs []*Instance, c charger) (ext map[string]uint64, ok bool) {
	if bindKey == "" || s.DisableCache {
		return nil, false
	}
	defer func() {
		if r := recover(); r != nil {
			s.stats.recovered.Add(1)
			s.stats.bindingMisses.Add(1)
			ext, ok = nil, false
		}
	}()
	if err := s.faults.Fire(fault.SiteResolveCache); err != nil {
		s.stats.bindingMisses.Add(1)
		return nil, false
	}
	head := s.bindingTable(bindKey)
	if head == nil {
		s.stats.bindingMisses.Add(1)
		return nil, false
	}
	ext, ok = head.variant(libs).replay(und, libs)
	if !ok {
		// No kept variant describes this resolution — a library's
		// content (and therefore possibly its exports) differs from every
		// one recorded.  The search below records a variant beside them.
		s.stats.bindingInvalidations.Add(1)
		return nil, false
	}
	if c != nil && len(ext) > 0 {
		c.ChargeServer(uint64(len(ext)) * s.kern.Cost.ServerBindingBind)
	}
	s.stats.bindingHits.Add(1)
	return ext, true
}

// replay rebuilds the extern map of the variant t (nil for none) with
// direct definer lookups: valid when every undefined symbol has a
// recorded binding that the definer still exports.
func (t *BindingTable) replay(und []string, libs []*Instance) (map[string]uint64, bool) {
	if t == nil {
		return nil, false
	}
	byName := make(map[string]*store.Binding, len(t.Bindings))
	for i := range t.Bindings {
		byName[t.Bindings[i].Symbol] = &t.Bindings[i]
	}
	ext := make(map[string]uint64, len(und))
	for _, sym := range und {
		b := byName[sym]
		if b == nil || int(b.LibIdx) >= len(libs) {
			return nil, false
		}
		a, found := libs[b.LibIdx].Res.Image.Syms[sym]
		if !found {
			return nil, false
		}
		ext[sym] = a
	}
	return ext, true
}

// variant returns the kept variant, from t on, recorded against exactly
// the libraries libs — the same count, and every recorded content key
// that of the live library at its position — or nil for none.
func (t *BindingTable) variant(libs []*Instance) *BindingTable {
	live := func(ck string, li *Instance) bool { return ck != "" && ck == li.ContentKey }
	for ; t != nil; t = t.older {
		if slices.EqualFunc(t.LibKeys, libs, live) {
			return t
		}
	}
	return nil
}

// searchExterns is the cold path: the classic symbol search over the
// library list in link order, first definition wins.  The resolution
// is recorded as a binding table so the next build of this image
// replays it instead.
func (s *Server) searchExterns(name, bindKey string, und []string, libs []*Instance, c charger) map[string]uint64 {
	ext := make(map[string]uint64, len(und))
	var binds []store.Binding
	probes := 0
	for _, sym := range und {
		for i, li := range libs {
			probes++
			if a, found := li.Res.Image.Syms[sym]; found {
				ext[sym] = a
				binds = append(binds, store.Binding{
					Symbol:  sym,
					Definer: definerPath(li.Name),
					DefKey:  li.ContentKey,
					LibIdx:  uint32(i),
					Addr:    a,
				})
				break
			}
		}
	}
	s.stats.symbolSearches.Add(uint64(len(und)))
	if c != nil && probes > 0 {
		c.ChargeServer(uint64(probes) * s.kern.Cost.ServerSymbolSearch)
	}
	if bindKey != "" && !s.DisableCache && len(binds) > 0 {
		tbl := &BindingTable{
			Image:    name,
			Gen:      s.ns.Load().num,
			Resolved: "search",
			LibKeys:  make([]string, len(libs)),
			Bindings: binds,
		}
		for i, li := range libs {
			tbl.LibKeys[i] = li.ContentKey
		}
		s.installBindings(bindKey, tbl, true)
	}
	return ext
}

// installBindings publishes tbl as its identity's newest variant, the
// other kept one older.  A fresh search (overwrite) replaces a variant
// for the same libraries; a warm-loaded table does not (it must not
// clobber a resolution this session already confirmed).
func (s *Server) installBindings(bindKey string, tbl *BindingTable, overwrite bool) {
	s.bindMu.Lock()
	defer s.bindMu.Unlock()
	for t := s.bindings[bindKey]; t != nil; t = t.older {
		if slices.Equal(t.LibKeys, tbl.LibKeys) {
			if !overwrite {
				return
			}
		} else if tbl.older == nil {
			tbl.older = t.alone()
		}
	}
	s.bindings[bindKey] = tbl
}

// alone is a copy of t without its older variant: an installed table
// never changes.
func (t *BindingTable) alone() *BindingTable {
	c := *t
	c.older = nil
	return &c
}

// bindingTable returns the newest variant recorded under a resolution
// identity (nil when absent).
func (s *Server) bindingTable(bindKey string) *BindingTable {
	s.bindMu.RLock()
	defer s.bindMu.RUnlock()
	return s.bindings[bindKey]
}

// eachBinding calls fn on every kept variant, each identity's newest
// first.
func (s *Server) eachBinding(fn func(*BindingTable)) {
	s.bindMu.RLock()
	defer s.bindMu.RUnlock()
	for _, head := range s.bindings {
		for t := head; t != nil; t = t.older {
			fn(t)
		}
	}
}

// dropBindings forgets every kept variant drop selects.
func (s *Server) dropBindings(drop func(*BindingTable) bool) {
	s.bindMu.Lock()
	defer s.bindMu.Unlock()
	for k, head := range s.bindings {
		switch older := head.older; {
		case drop(head) && (older == nil || drop(older)):
			delete(s.bindings, k)
		case drop(head):
			s.bindings[k] = older
		case older != nil && drop(older):
			s.bindings[k] = head.alone()
		}
	}
}

// dropBindingsOf forgets every resolution recorded for the image at a
// namespace path.  A table outlives eviction — replaying it after a
// rebuild is its purpose — but not removal of the path it describes:
// kept, it would grow by one per program ever defined, and the rebind
// guard and Explain would go on answering for a program that no longer
// exists.  p is a clean path, as image names are (Evict matches them
// the same way).
func (s *Server) dropBindingsOf(p string) {
	s.dropBindings(func(t *BindingTable) bool { return t.Image == p })
}

// blobSum returns the store checksum the entry under key carries (""
// when the key has no entry or its blob was neither written nor
// attached this session).  The checksum leaves with the entry, in the
// same step as the blob (retireLocked).
func (s *Server) blobSum(key string) string {
	s.cacheMu.RLock()
	defer s.cacheMu.RUnlock()
	if e := s.entries[key]; e != nil {
		return e.sum
	}
	return ""
}

// pinsOf pins the identities of the libraries an image is being
// linked against: cache key, content key, and — when the library has
// been persisted — its store blob checksum.
func (s *Server) pinsOf(libs []*Instance) []store.LibPin {
	if len(libs) == 0 {
		return nil
	}
	pins := make([]store.LibPin, len(libs))
	for i, li := range libs {
		pins[i] = store.LibPin{LibKey: li.Key, ContentKey: li.ContentKey, Checksum: s.blobSum(li.Key)}
	}
	return pins
}

// verifyPins checks a pinned image's library identities against the
// libraries actually attached to it.  The fault site models a definer
// swap (a hijacked library the namespace would otherwise hand to a
// running program); the check turns it into a typed, counted
// rejection.  Returns nil for unpinned images.
func (s *Server) verifyPins(inst *Instance) error {
	if len(inst.Pins) == 0 {
		return nil
	}
	violation := func(lib, field, want, got string) error {
		s.stats.pinViolations.Add(1)
		return &refusal.PinViolationError{Image: inst.Name, Lib: lib, Field: field, Want: want, Got: got}
	}
	if err := s.faults.Fire(fault.SiteNamespaceHijack); err != nil {
		return violation("(injected)", "injected", "pinned definer", "swapped definer")
	}
	if len(inst.Pins) != len(inst.Libs) {
		return violation("(all)", "libs", fmt.Sprint(len(inst.Pins)), fmt.Sprint(len(inst.Libs)))
	}
	for i, p := range inst.Pins {
		li := inst.Libs[i]
		if p.LibKey != li.Key {
			return violation(definerPath(li.Name), "lib-key", p.LibKey, li.Key)
		}
		if p.ContentKey != "" && li.ContentKey != "" && p.ContentKey != li.ContentKey {
			return violation(definerPath(li.Name), "content-key", p.ContentKey, li.ContentKey)
		}
		if p.Checksum != "" {
			if got := s.blobSum(li.Key); got != "" && got != p.Checksum {
				return violation(definerPath(li.Name), "checksum", p.Checksum, got)
			}
		}
	}
	return nil
}

// verifyPinned runs the pin check on a cached instance about to be
// mapped, and on violation quarantines the image — its entry is
// retired and its store blob moved aside — so the next instantiation
// rebuilds and re-pins from source instead of running a hijacked
// image.
func (s *Server) verifyPinned(inst *Instance) error {
	err := s.verifyPins(inst)
	if err == nil {
		return nil
	}
	s.cacheMu.Lock()
	if _, cur := s.liveLocked(inst.Key); cur == inst {
		s.retireLocked(inst.Key, true)
	}
	s.cacheMu.Unlock()
	return err
}

// rebindConflict reports whether mutating path would re-bind a symbol
// some kept binding-table variant binds through that path.
// prefix mutations (mount/unmount) conflict only for definer paths
// the mutation could actually capture: those under the prefix with no
// local namespace entry (local entries always win the lookup).
func (s *Server) rebindConflict(mutation, p string) (re *refusal.RebindError) {
	p = cleanPath(p)
	prefixOp := mutation == "mount" || mutation == "unmount"
	entries := s.ns.Load().entries
	s.eachBinding(func(tbl *BindingTable) {
		for i := range tbl.Bindings {
			b := &tbl.Bindings[i]
			if re != nil {
				return
			}
			if prefixOp {
				if b.Definer != p && !strings.HasPrefix(b.Definer, p+"/") {
					continue
				}
				if _, local := entries[b.Definer]; local {
					continue
				}
			} else if b.Definer != p {
				continue
			}
			re = &refusal.RebindError{
				Mutation: mutation,
				Path:     p,
				Program:  tbl.Image,
				Symbol:   b.Symbol,
				Definer:  b.Definer,
			}
		}
	})
	return re
}

// guardRebind enforces the allow flag on a conflicting mutation:
// blocked (typed error) without it, counted and permitted with it.
// Permitted mutations rely on table invalidation for correctness —
// the stale resolution is detected and recomputed on the next build.
func (s *Server) guardRebind(mutation, p string, allow bool) error {
	re := s.rebindConflict(mutation, p)
	if re == nil {
		return nil
	}
	if !allow {
		s.stats.rebindsBlocked.Add(1)
		return re
	}
	s.stats.rebindsAllowed.Add(1)
	return nil
}

// Explain answers "who binds sym and why": for every kept variant that
// binds the symbol, the consuming image, the definer path and content
// key, the library position it was found at, the bound address, the
// namespace generation, and how it was resolved (fresh search or a
// prior session's warm-loaded table).  This is the audit surface behind
// `omos explain <sym>`.
func (s *Server) Explain(sym string) (string, error) {
	type row struct {
		image string
		b     store.Binding
		gen   uint64
		how   string
	}
	var rows []row
	s.eachBinding(func(tbl *BindingTable) {
		for _, b := range tbl.Bindings {
			if b.Symbol == sym {
				rows = append(rows, row{image: tbl.Image, b: b, gen: tbl.Gen, how: tbl.Resolved})
			}
		}
	})
	if len(rows) == 0 {
		return "", fmt.Errorf("server: no recorded binding for %q", sym)
	}
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].image < rows[j].image })
	var sb strings.Builder
	fmt.Fprintf(&sb, "symbol %s:\n", sym)
	definers := make(map[string]bool, len(rows))
	for _, r := range rows {
		fmt.Fprintf(&sb, "  %s binds %s -> %s @%#x\n", r.image, sym, r.b.Definer, r.b.Addr)
		fmt.Fprintf(&sb, "    view: library %d of %s, definer key %s\n", r.b.LibIdx, r.image, orNone(r.b.DefKey))
		fmt.Fprintf(&sb, "    resolved by %s at namespace generation %d\n", r.how, r.gen)
		definers[r.b.Definer] = true
	}
	// Any live-upgrade history touching a definer of this symbol is
	// part of the answer to "why is it bound here".
	if hist := s.upgradeHistoryFor(definers); len(hist) > 0 {
		sb.WriteString("upgrade history:\n")
		for _, line := range hist {
			fmt.Fprintf(&sb, "  %s\n", line)
		}
	}
	return sb.String(), nil
}

func orNone(s string) string {
	if s == "" {
		return "(none)"
	}
	return s
}
