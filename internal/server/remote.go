package server

import (
	"fmt"
	"sort"
	"strings"

	"omos/internal/obj"
)

// RemoteFetcher retrieves namespace entries from another OMOS server —
// the "consolidating OMOS servers in a network" engineering item of
// §10.  mesh.MountPeer supplies one that speaks the daemon protocol
// to a mesh peer.
type RemoteFetcher interface {
	// FetchMeta returns the blueprint source and library flag of a
	// meta-object on the remote server.
	FetchMeta(path string) (src string, isLibrary bool, err error)
	// FetchObject returns the encoded ROF bytes of a remote object.
	FetchObject(path string) ([]byte, error)
}

// mount is one remote namespace attachment.
type mount struct {
	prefix  string
	fetcher RemoteFetcher
}

// Mount attaches a remote server's namespace under prefix: lookups
// below the prefix that miss locally are fetched from the remote and
// cached in the local namespace (fetch-once).  Blueprint sources are
// re-parsed locally, so remote meta-objects may themselves reference
// further remote entries under the same prefix.
//
// Mounting over a live definer path that has no local namespace entry
// would let the remote capture an existing program's next resolution;
// that is rejected with a typed *RebindError unless made explicit via
// MountAllow.
func (s *Server) Mount(prefix string, f RemoteFetcher) error {
	return s.MountAllow(prefix, f, false)
}

// MountAllow is Mount with an explicit rebind-allow flag.
func (s *Server) MountAllow(prefix string, f RemoteFetcher, allow bool) error {
	prefix = cleanPath(prefix)
	if err := s.guardRebind("mount", prefix, allow); err != nil {
		return err
	}
	s.nsMu.Lock()
	s.mounts = append(s.mounts, mount{prefix: prefix, fetcher: f})
	// Longest prefix first.
	sort.Slice(s.mounts, func(i, j int) bool {
		return len(s.mounts[i].prefix) > len(s.mounts[j].prefix)
	})
	s.nsMu.Unlock()
	// A new mount changes what paths resolve to; memoized content
	// hashes may no longer describe what a lookup would now find.
	s.invalidateHashes()
	return nil
}

// Unmount removes every mount at prefix.  Like Mount, it is rejected
// when a live program binds a symbol through a fetched-but-not-local
// definer under the prefix, unless made explicit via UnmountAllow.
func (s *Server) Unmount(prefix string) error {
	return s.UnmountAllow(prefix, false)
}

// UnmountAllow is Unmount with an explicit rebind-allow flag.
func (s *Server) UnmountAllow(prefix string, allow bool) error {
	prefix = cleanPath(prefix)
	if err := s.guardRebind("unmount", prefix, allow); err != nil {
		return err
	}
	s.nsMu.Lock()
	keep := s.mounts[:0]
	for _, m := range s.mounts {
		if m.prefix != prefix {
			keep = append(keep, m)
		}
	}
	s.mounts = keep
	s.nsMu.Unlock()
	s.invalidateHashes()
	return nil
}

func (s *Server) mountFor(p string) *mount {
	s.nsMu.RLock()
	defer s.nsMu.RUnlock()
	for i := range s.mounts {
		m := &s.mounts[i]
		if p == m.prefix || strings.HasPrefix(p, m.prefix+"/") {
			return m
		}
	}
	return nil
}

// fetchRemote pulls a missing namespace entry through its mount and
// installs it locally.  Returns false when no mount covers the path.
func (s *Server) fetchRemote(p string) (bool, error) {
	p = cleanPath(p)
	m := s.mountFor(p)
	if m == nil {
		return false, nil
	}
	// Try a meta-object first; fall back to a raw object.
	src, isLib, metaErr := m.fetcher.FetchMeta(p)
	if metaErr == nil {
		// The mount itself passed the rebind guard (or was explicitly
		// allowed); installing the fetched entry locally is its sanctioned
		// consequence, not a second mutation to re-approve.
		if err := s.define(p, src, isLib, true); err != nil {
			return false, fmt.Errorf("server: importing remote meta %s: %w", p, err)
		}
		return true, nil
	}
	blob, objErr := m.fetcher.FetchObject(p)
	if objErr != nil {
		return false, fmt.Errorf("server: remote %s: %v / %v", p, metaErr, objErr)
	}
	o, err := obj.Decode(blob)
	if err != nil {
		return false, fmt.Errorf("server: decoding remote object %s: %w", p, err)
	}
	if err := s.PutObject(p, o); err != nil {
		return false, err
	}
	return true, nil
}

// lookupEntry finds a namespace entry, consulting mounts on a miss.
func (s *Server) lookupEntry(p string) (nsEntry, bool, error) {
	p = cleanPath(p)
	s.nsMu.RLock()
	e, ok := s.ns[p]
	s.nsMu.RUnlock()
	if ok {
		return e, true, nil
	}
	fetched, err := s.fetchRemote(p)
	if err != nil {
		return nsEntry{}, false, err
	}
	if !fetched {
		return nsEntry{}, false, nil
	}
	s.nsMu.RLock()
	e, ok = s.ns[p]
	s.nsMu.RUnlock()
	return e, ok, nil
}

// ExportMeta returns the blueprint source of a local meta-object (the
// server side of FetchMeta).
func (s *Server) ExportMeta(p string) (src string, isLibrary bool, err error) {
	s.nsMu.RLock()
	e, ok := s.ns[cleanPath(p)]
	s.nsMu.RUnlock()
	if !ok || e.meta == nil {
		return "", false, fmt.Errorf("server: no meta-object at %s", p)
	}
	return e.meta.Src, e.meta.IsLibrary, nil
}

// ExportObject returns the encoded bytes of a local object (the
// server side of FetchObject).
func (s *Server) ExportObject(p string) ([]byte, error) {
	s.nsMu.RLock()
	e, ok := s.ns[cleanPath(p)]
	s.nsMu.RUnlock()
	if !ok || e.object == nil {
		return nil, fmt.Errorf("server: no object at %s", p)
	}
	return obj.Encode(e.object)
}
