package server

import (
	"fmt"
	"slices"
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
// that is rejected with a typed *refusal.RebindError unless made
// explicit via MountAllow.
func (s *Server) Mount(prefix string, f RemoteFetcher) error {
	return s.MountAllow(prefix, f, false)
}

// MountAllow is Mount with an explicit rebind-allow flag.
func (s *Server) MountAllow(prefix string, f RemoteFetcher, allow bool) error {
	prefix = cleanPath(prefix)
	if err := s.guardRebind("mount", prefix, allow); err != nil {
		return err
	}
	s.writeNS(func(v *nsVersion) {
		v.mounts = append(slices.Clip(v.mounts), mount{prefix: prefix, fetcher: f})
		// Longest prefix first.
		sort.Slice(v.mounts, func(i, j int) bool {
			return len(v.mounts[i].prefix) > len(v.mounts[j].prefix)
		})
	})
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
	s.writeNS(func(v *nsVersion) {
		var keep []mount
		for _, m := range v.mounts {
			if m.prefix != prefix {
				keep = append(keep, m)
			}
		}
		v.mounts = keep
	})
	return nil
}

// fetchRemote resolves a clean path v has no entry for through v's
// mounts: the remote entry is fetched once and installed in the
// namespace, where every later miss of the path finds it.  Returns
// false when no mount covers the path.
func (s *Server) fetchRemote(v *nsVersion, p string) (nsEntry, bool, error) {
	var m *mount
	for i := range v.mounts {
		if p == v.mounts[i].prefix || strings.HasPrefix(p, v.mounts[i].prefix+"/") {
			m = &v.mounts[i]
			break
		}
	}
	if m == nil {
		return nsEntry{}, false, nil
	}
	if e, ok := s.ns.Load().entries[p]; ok {
		return e, true, nil
	}
	// Try a meta-object first; fall back to a raw object.
	src, isLib, metaErr := m.fetcher.FetchMeta(p)
	if metaErr == nil {
		// The mount itself passed the rebind guard (or was explicitly
		// allowed); installing the fetched entry locally is its sanctioned
		// consequence, not a second mutation to re-approve.
		if err := s.define(p, src, isLib, true); err != nil {
			return nsEntry{}, false, fmt.Errorf("server: importing remote meta %s: %w", p, err)
		}
	} else {
		blob, objErr := m.fetcher.FetchObject(p)
		if objErr != nil {
			return nsEntry{}, false, fmt.Errorf("server: remote %s: %v / %v", p, metaErr, objErr)
		}
		o, err := obj.Decode(blob)
		if err != nil {
			return nsEntry{}, false, fmt.Errorf("server: decoding remote object %s: %w", p, err)
		}
		if err := s.PutObject(p, o); err != nil {
			return nsEntry{}, false, err
		}
	}
	e, ok := s.ns.Load().entries[p]
	return e, ok, nil
}

// ExportMeta returns the blueprint source of a local meta-object (the
// server side of FetchMeta).
func (s *Server) ExportMeta(p string) (src string, isLibrary bool, err error) {
	e, ok := s.ns.Load().entries[cleanPath(p)]
	if !ok || e.meta == nil {
		return "", false, fmt.Errorf("server: no meta-object at %s", p)
	}
	return e.meta.Src, e.meta.IsLibrary, nil
}

// ExportObject returns the encoded bytes of a local object (the
// server side of FetchObject).
func (s *Server) ExportObject(p string) ([]byte, error) {
	e, ok := s.ns.Load().entries[cleanPath(p)]
	if !ok || e.object == nil {
		return nil, fmt.Errorf("server: no object at %s", p)
	}
	return obj.Encode(e.object)
}
