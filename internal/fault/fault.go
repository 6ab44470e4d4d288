// Package fault is a deterministic, seedable fault-injection
// framework for exercising the OMOS daemon's failure surface.
//
// The paper's architecture makes the linker a *persistent server*: a
// crash, a stuck build, or a corrupt cached blob now affects every
// client instead of one exec.  This package gives the rest of the
// repository named injection points ("sites") at which tests and the
// resilience benchmark can demand an error, a delay, a panic, or a
// byte corruption — with per-site probability or every-Nth triggers,
// bounded trigger counts, and a seeded PRNG so a failing run replays
// exactly.
//
// A *Set is nil-safe: every method on a nil receiver is a no-op, so
// production call sites pay one pointer test when injection is off.
// Rules may be enabled and disabled while traffic is flowing (the Set
// carries its own lock); the *pointer* to a Set carried by a Store,
// Server, or Kernel must be installed before serving traffic.
package fault

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Kind is the effect a triggered rule has at its site.
type Kind uint8

// Fault kinds.
const (
	// KindError makes the site return an *Injected error.
	KindError Kind = iota
	// KindDelay makes the site sleep for the rule's Delay, then
	// proceed normally.
	KindDelay
	// KindPanic makes the site panic with an *Injected value,
	// exercising the recovery paths that must keep the daemon alive.
	KindPanic
	// KindCorrupt makes the site's Corrupt call flip bits in the bytes
	// passing through it (reads of stored blobs, wire frames).
	KindCorrupt
)

var kindNames = map[Kind]string{
	KindError:   "error",
	KindDelay:   "delay",
	KindPanic:   "panic",
	KindCorrupt: "corrupt",
}

// String returns the spec-syntax name of the kind.
func (k Kind) String() string {
	if n, ok := kindNames[k]; ok {
		return n
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Injected is the typed error (and panic value) produced by a
// triggered site.  errors.Is(err, ErrInjected) matches any of them.
type Injected struct {
	Site string
	Kind Kind
}

// Error implements error.
func (e *Injected) Error() string {
	return fmt.Sprintf("fault: injected %s at %s", e.Kind, e.Site)
}

// Is makes every *Injected match ErrInjected.
func (e *Injected) Is(target error) bool { return target == ErrInjected }

// ErrInjected is the sentinel all injected errors match via errors.Is.
var ErrInjected = errors.New("fault: injected")

// Registered injection sites.  Keeping the names here (the one
// package everything may import) lets the fault-matrix test enumerate
// the daemon's entire failure surface.
const (
	// SiteStoreRead fires in Store.Get before/while reading a blob.
	SiteStoreRead = "store.read"
	// SiteStoreWrite fires in Store.Put before the temp file is written.
	SiteStoreWrite = "store.write"
	// SiteStoreRename fires in Store.Put between the temp-file write
	// and the rename — a simulated crash that leaves a partial file.
	SiteStoreRename = "store.rename"
	// SiteStoreScrub fires in the background scrubber's blob
	// re-verification (read errors and corruption of the bytes the
	// scrubber sees, independent of the Get path).
	SiteStoreScrub = "store.scrub"
	// SiteIPCRead fires in the daemon's serve loop after a request
	// frame is read.
	SiteIPCRead = "ipc.read"
	// SiteIPCWrite fires in the daemon's serve loop before a response
	// frame is written.
	SiteIPCWrite = "ipc.write"
	// SiteBuildEval fires before an m-graph evaluation.
	SiteBuildEval = "build.eval"
	// SiteBuildLink fires inside the singleflight build function,
	// before the link runs.
	SiteBuildLink = "build.link"
	// SiteCheckpoint fires in the server's per-node checkpoint step,
	// before a completed build-graph node is written through to the
	// persistent store.  Checkpointing is best-effort: a triggered
	// fault costs the next session's resume of that node, never the
	// current build.
	SiteCheckpoint = "buildgraph.checkpoint"
	// SiteFrameMake fires in the kernel frame table when a shared
	// segment is materialized.
	SiteFrameMake = "osim.frame"
	// SiteResolveCache fires in the server's binding-cache lookup —
	// a corrupt or missing persisted binding record.  The cache is
	// best-effort: a triggered fault degrades the lookup to a miss and
	// resolution falls back to the full symbol search.
	SiteResolveCache = "resolve.cache"
	// SiteNamespaceHijack fires inside the pin verification that runs
	// at map and warm-restart time: an injected definer swap that the
	// provenance check must catch.  Unlike SiteResolveCache this is a
	// hard failure — the pinned image is rejected (and quarantined),
	// never silently re-bound.
	SiteNamespaceHijack = "namespace.hijack"
	// SiteMeshPeerFetch fires on the mesh's peer-fetch path, both when
	// a non-owning daemon consults a content key's ring owner and when
	// the owner serves the fetch.  A triggered fault degrades the miss
	// to the local build path (rebase or relink) — never an
	// availability loss.
	SiteMeshPeerFetch = "mesh.peer-fetch"
	// SiteMeshGossip fires at the top of an anti-entropy gossip round.
	// Gossip is convergence, not correctness: a faulted round is
	// skipped and the next one retries the same digests.
	SiteMeshGossip = "mesh.gossip"
	// SiteMeshRebalance fires on a shard rebalance (join or leave
	// moving content keys to their new owners): once at the start of
	// the round and once per content push, so a budget can interrupt a
	// rebalance partway through.  Rebalance is copy-only over
	// content-addressed records, so a fault mid-push leaves both
	// shards consistent; the next rebalance resumes.
	SiteMeshRebalance = "mesh.rebalance"
	// SiteUpgradeCanary fires inside a canary-cohort build during a
	// live upgrade epoch — the injected regression the health gate must
	// catch and answer with an automatic rollback.
	SiteUpgradeCanary = "upgrade.canary"
	// SiteUpgradeCommit fires inside UpgradeCommit after the epoch's
	// commit intent is durable but before the staged definitions are
	// applied — the mid-commit crash window.  Warm restart must finish
	// the commit, never boot a torn namespace.
	SiteUpgradeCommit = "upgrade.commit"
	// SiteUpgradeRollback fires inside UpgradeRollback before v2's
	// images and bindings are released.  A triggered fault leaves the epoch
	// rolling back (health reports it); the rollback is retried.
	SiteUpgradeRollback = "upgrade.rollback"
)

// Sites returns every registered site name, sorted.
func Sites() []string {
	return []string{
		SiteBuildEval, SiteBuildLink,
		SiteCheckpoint,
		SiteIPCRead, SiteIPCWrite,
		SiteMeshGossip, SiteMeshPeerFetch, SiteMeshRebalance,
		SiteNamespaceHijack,
		SiteFrameMake,
		SiteResolveCache,
		SiteStoreRead, SiteStoreRename, SiteStoreScrub, SiteStoreWrite,
		SiteUpgradeCanary, SiteUpgradeCommit, SiteUpgradeRollback,
	}
}

// Kinds returns every fault kind's spec-syntax name, sorted.
func Kinds() []string {
	return []string{"corrupt", "delay", "error", "panic"}
}

// knownSite reports whether name is a registered injection site.
func knownSite(name string) bool {
	for _, s := range Sites() {
		if s == name {
			return true
		}
	}
	return false
}

// Rule arms one site.  Exactly one of Prob (probabilistic trigger per
// hit) or EveryN (trigger on every Nth hit) selects when it fires;
// Count, when non-zero, caps the total number of triggers.
type Rule struct {
	Site   string
	Kind   Kind
	Prob   float64       // 0 < Prob <= 1 triggers with that probability
	EveryN uint64        // n > 0 triggers on hits n, 2n, 3n, ...
	Count  uint64        // max triggers; 0 = unlimited
	Delay  time.Duration // sleep for KindDelay (default 1ms)
}

type siteState struct {
	rule  Rule
	hits  uint64
	trips uint64
}

// Set is a collection of armed rules plus the seeded PRNG that drives
// probabilistic triggers.  Safe for concurrent use; nil-safe.
type Set struct {
	mu    sync.Mutex
	rng   *rand.Rand
	sites map[string]*siteState
}

// New returns an empty set whose probabilistic decisions derive from
// seed.
func New(seed int64) *Set {
	return &Set{rng: rand.New(rand.NewSource(seed)), sites: map[string]*siteState{}}
}

// Enable arms (or replaces) the rule for its site.
func (s *Set) Enable(r Rule) error {
	if s == nil {
		return errors.New("fault: enable on nil set")
	}
	if r.Site == "" {
		return errors.New("fault: rule without site")
	}
	if (r.Prob <= 0) == (r.EveryN == 0) {
		return fmt.Errorf("fault: rule for %s needs exactly one of p= or n=", r.Site)
	}
	if r.Prob < 0 || r.Prob > 1 {
		return fmt.Errorf("fault: rule for %s: probability %v out of range", r.Site, r.Prob)
	}
	if r.Kind == KindDelay && r.Delay <= 0 {
		r.Delay = time.Millisecond
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sites[r.Site] = &siteState{rule: r}
	return nil
}

// Disable disarms a site (counters are discarded with it).
func (s *Set) Disable(site string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.sites, site)
}

// DisableAll disarms every site.
func (s *Set) DisableAll() {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sites = map[string]*siteState{}
}

// Armed returns the sites currently carrying rules, sorted.
func (s *Set) Armed() []string {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.sites))
	for site := range s.sites {
		out = append(out, site)
	}
	sort.Strings(out)
	return out
}

// Trips returns how many times the site's rule has triggered.
func (s *Set) Trips(site string) uint64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if st, ok := s.sites[site]; ok {
		return st.trips
	}
	return 0
}

// kindAt peeks at the armed rule's kind without recording a hit, so
// a site hosting both Fire and Corrupt charges each hit to exactly
// one of them.
func (s *Set) kindAt(site string) (Kind, bool) {
	if s == nil {
		return 0, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.sites[site]
	if !ok {
		return 0, false
	}
	return st.rule.Kind, true
}

// decide records a hit and reports whether the rule triggers, along
// with a copy of the rule.  The caller performs the effect outside
// the lock (a delay or panic must not hold it).
func (s *Set) decide(site string) (Rule, bool) {
	if s == nil {
		return Rule{}, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.sites[site]
	if !ok {
		return Rule{}, false
	}
	st.hits++
	if st.rule.Count > 0 && st.trips >= st.rule.Count {
		return Rule{}, false
	}
	trig := false
	if st.rule.EveryN > 0 {
		trig = st.hits%st.rule.EveryN == 0
	} else {
		trig = s.rng.Float64() < st.rule.Prob
	}
	if trig {
		st.trips++
	}
	return st.rule, trig
}

// Fire records a hit at site and performs the armed effect: returns
// an *Injected error (KindError), sleeps (KindDelay), or panics with
// an *Injected (KindPanic).  KindCorrupt never triggers here — byte
// corruption happens in Corrupt — so a corrupt rule leaves Fire as a
// no-op.  A nil set, unarmed site, or untriggered hit returns nil.
func (s *Set) Fire(site string) error {
	if k, ok := s.kindAt(site); !ok || k == KindCorrupt {
		return nil
	}
	r, trig := s.decide(site)
	if !trig {
		return nil
	}
	switch r.Kind {
	case KindError:
		return &Injected{Site: site, Kind: KindError}
	case KindDelay:
		time.Sleep(r.Delay)
		return nil
	case KindPanic:
		panic(&Injected{Site: site, Kind: KindPanic})
	default:
		return nil
	}
}

// Corrupt passes bytes through the site: when a corrupt-kind rule
// triggers, it returns a copy with bits flipped (deterministically,
// spread across the buffer); otherwise it returns b unchanged.  Only
// corrupt-kind rules act here, so one site can host both Fire and
// Corrupt without double-triggering.
func (s *Set) Corrupt(site string, b []byte) []byte {
	if s == nil || len(b) == 0 {
		return b
	}
	if k, ok := s.kindAt(site); !ok || k != KindCorrupt {
		return b
	}
	if _, trig := s.decide(site); !trig {
		return b
	}
	out := append([]byte(nil), b...)
	// Flip a bit in a handful of positions spread across the buffer;
	// enough to defeat any checksum, deterministic given the layout.
	for i := 0; i < 4; i++ {
		pos := (len(out) / 4 * i) % len(out)
		out[pos] ^= 0x40
	}
	return out
}

// Parse builds a set from a spec string (the OMOS_FAULTS syntax):
//
//	site:kind[:p=P|n=N][:count=C][:delay=D] [; more rules]
//
// kind is error|delay|panic|corrupt; P is a probability in (0,1]; N
// an every-Nth hit count; C a trigger cap; D a Go duration for delay
// rules.  Rules are separated by ';' or ','.  Example:
//
//	OMOS_FAULTS='store.read:corrupt:p=0.01;ipc.write:error:n=100:count=3'
func Parse(spec string, seed int64) (*Set, error) {
	s := New(seed)
	for _, part := range strings.FieldsFunc(spec, func(r rune) bool { return r == ';' || r == ',' }) {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		fields := strings.Split(part, ":")
		if len(fields) < 2 {
			return nil, fmt.Errorf("fault: rule %q: want site:kind[:opts]", part)
		}
		r := Rule{Site: strings.TrimSpace(fields[0])}
		// A typo'd site would otherwise arm a rule that silently never
		// trips — reject it here, naming the offending token and the
		// sites that do exist.
		if !knownSite(r.Site) {
			return nil, fmt.Errorf("fault: rule %q: unknown site %q (known sites: %s)",
				part, r.Site, strings.Join(Sites(), ", "))
		}
		switch kind := strings.TrimSpace(fields[1]); kind {
		case "error":
			r.Kind = KindError
		case "delay":
			r.Kind = KindDelay
		case "panic":
			r.Kind = KindPanic
		case "corrupt":
			r.Kind = KindCorrupt
		default:
			return nil, fmt.Errorf("fault: rule %q: unknown kind %q (known kinds: error, delay, panic, corrupt)", part, kind)
		}
		for _, opt := range fields[2:] {
			key, val, ok := strings.Cut(strings.TrimSpace(opt), "=")
			if !ok {
				return nil, fmt.Errorf("fault: rule %q: bad option %q", part, opt)
			}
			switch key {
			case "p":
				p, err := strconv.ParseFloat(val, 64)
				if err != nil {
					return nil, fmt.Errorf("fault: rule %q: p=%q: %v", part, val, err)
				}
				r.Prob = p
			case "n":
				n, err := strconv.ParseUint(val, 10, 64)
				if err != nil {
					return nil, fmt.Errorf("fault: rule %q: n=%q: %v", part, val, err)
				}
				r.EveryN = n
			case "count":
				n, err := strconv.ParseUint(val, 10, 64)
				if err != nil {
					return nil, fmt.Errorf("fault: rule %q: count=%q: %v", part, val, err)
				}
				r.Count = n
			case "delay":
				d, err := time.ParseDuration(val)
				if err != nil {
					return nil, fmt.Errorf("fault: rule %q: delay=%q: %v", part, val, err)
				}
				r.Delay = d
			default:
				return nil, fmt.Errorf("fault: rule %q: unknown option %q", part, key)
			}
		}
		if r.Prob == 0 && r.EveryN == 0 {
			r.EveryN = 1 // bare "site:kind" triggers every hit
		}
		if err := s.Enable(r); err != nil {
			return nil, err
		}
	}
	return s, nil
}
