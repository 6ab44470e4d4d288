package mgraph

import "sync"

// HashGenerator is optionally implemented by a Context whose namespace
// contents are versioned.  HashGeneration returns the number of the
// immutable namespace version the context reads; distinct versions
// have distinct numbers.  Within one version subtree hashes — which
// depend only on the graph structure and the content of the entries it
// references — cannot change, so they are memoized per node and the
// warm instantiation path does zero re-hashing.
//
// A Context that does not implement HashGenerator gets the old
// behavior: every Hash call recomputes the full subtree digest.
type HashGenerator interface {
	HashGeneration() uint64
}

// hashMemo caches one node's subtree hash for a single namespace
// version.  Nodes are shared between concurrent evaluations (the
// server stores one graph per meta-object and many clients instantiate
// it at once), so the memo is internally locked.  The lock is held
// across the compute function: concurrent hashers of the same subtree
// coalesce onto one computation.  Holding it cannot deadlock — m-graphs
// are acyclic and each node's lock is only ever taken while holding
// locks of its ancestors.
type hashMemo struct {
	mu  sync.Mutex
	ok  bool
	gen uint64
	val string
}

// resolve returns the cached hash if it was computed for the context's
// version, computing and caching it otherwise.
func (m *hashMemo) resolve(ctx Context, compute func() (string, error)) (string, error) {
	g, versioned := ctx.(HashGenerator)
	if !versioned {
		return compute()
	}
	gen := g.HashGeneration()
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.ok && m.gen == gen {
		return m.val, nil
	}
	v, err := compute()
	if err != nil {
		return "", err
	}
	m.ok, m.gen, m.val = true, gen, v
	return v, nil
}
