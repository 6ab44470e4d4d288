package bench

import (
	"fmt"
	"net"

	"omos"
	"omos/internal/daemon"
	"omos/internal/ipc"
	"omos/internal/mesh"
)

// meshLibs is the shared fleet workload: six libraries at fixed fleet
// placements, one program per library, plus placement variants of each
// program (same construction, fresh namespace path → fresh placement).
const meshLibs = 6

// meshWarmRuns is how many further cache-hot runs each daemon makes
// once the fleet has converged.
const meshWarmRuns = 25

// Mesh compares a 4-daemon federated mesh against 4 independent
// daemons on the shared workload.  Every daemon serves the same six
// libraries and programs; independent daemons each relink the world
// from scratch, while mesh daemons build each content key once
// fleet-wide — later placement misses are served by a peer, first as
// a streamed blob and from then on as metadata-only rebases of the
// local variant.  Rows report total bytes linked across the fleet, how
// the remote misses were served, and — the mesh must not tax the warm
// path — how many peer consults further cache-hot runs cost (none:
// consults happen only on build misses).
func Mesh(Config) (*Table, error) {
	t := &Table{
		ID:    "mesh",
		Title: "federated mesh: 4-daemon fleet vs 4 independent daemons (shared 6-library workload)",
		Iters: meshWarmRuns,
		Notes: []string{
			"built-bytes totals full links across the fleet; blob installs and rebases link nothing",
			"each daemon runs every program plus 3 placement variants of it (distinct paths, distinct bases)",
			"meta-share-pct = peer metadata rebases / all remote misses served; the wire carries patch sites, not images",
			"warm-mesh-fetches = peer consults made by warm-runs further cache-hot runs after the fleet converges",
		},
	}

	indep, err := meshFleetRow(false)
	if err != nil {
		return nil, err
	}
	meshed, err := meshFleetRow(true)
	if err != nil {
		return nil, err
	}
	if meshed.Extra["built-bytes-total"] >= indep.Extra["built-bytes-total"] {
		return nil, fmt.Errorf("bench mesh: mesh fleet linked %.0f bytes, independent fleet %.0f — sharding bought nothing",
			meshed.Extra["built-bytes-total"], indep.Extra["built-bytes-total"])
	}
	t.Rows = append(t.Rows, indep, meshed)
	return t, nil
}

// meshFleetRow stands up a 4-daemon fleet (meshed or independent),
// drives the shared workload on every daemon, then re-runs one program
// cache-hot on each and counts the peer consults that cost.
func meshFleetRow(meshed bool) (Row, error) {
	const nD = 4
	syss := make([]*omos.System, nD)
	nodes := make([]*mesh.Node, nD)
	addrs := make([]string, nD)
	srvs := make([]*ipc.Server, nD)
	defer func() {
		for i := range syss {
			if nodes[i] != nil {
				nodes[i].Close()
			}
			if srvs[i] != nil {
				srvs[i].Shutdown()
			}
			if syss[i] != nil {
				syss[i].Close()
			}
		}
	}()
	for i := range syss {
		sys, err := omos.NewSystem()
		if err != nil {
			return Row{}, err
		}
		syss[i] = sys
		if !meshed {
			continue // nobody dials an independent daemon: the bare system is all of it
		}
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return Row{}, err
		}
		addrs[i] = l.Addr().String()
		node, err := mesh.New(sys.Srv, mesh.Config{Self: addrs[i], Secret: "bench"})
		if err != nil {
			return Row{}, err
		}
		nodes[i] = node
		b := daemon.New(sys)
		b.Mesh = node
		srvs[i] = ipc.NewServer(b)
		srvs[i].MeshSecret = "bench"
		go srvs[i].Serve(l)
	}
	if meshed {
		for i, n := range nodes {
			for j, a := range addrs {
				if j != i {
					n.AddPeer(a)
				}
			}
		}
	}

	// The shared workload, defined identically everywhere.
	for i := range syss {
		for j := 0; j < meshLibs; j++ {
			lib := fmt.Sprintf(`(constraint-list "T" %#x "D" %#x)
(source "c" "int mfn%d(int x) { return x * %d; }")`,
				0x5000000+uint64(j)*0x100000, 0x45000000+uint64(j)*0x100000, j, j+2)
			if err := syss[i].DefineLibrary(fmt.Sprintf("/lib/mb%d", j), lib); err != nil {
				return Row{}, err
			}
			if err := syss[i].Define(fmt.Sprintf("/bin/mb%d", j), meshBenchBP(j)); err != nil {
				return Row{}, err
			}
		}
	}

	// Every daemon runs every program and three placement variants of
	// it.  Daemon 0 goes first, so in the meshed fleet it links each
	// content key once and offers it to the ring owner; everyone else's
	// misses are then served over the wire.
	for i := 0; i < nD; i++ {
		for j := 0; j < meshLibs; j++ {
			if err := runMeshBench(syss[i], fmt.Sprintf("/bin/mb%d", j), j); err != nil {
				return Row{}, err
			}
			for v := 1; v <= 3; v++ {
				path := fmt.Sprintf("/bin/mb%dv%d", j, v)
				if err := syss[i].Define(path, meshBenchBP(j)); err != nil {
					return Row{}, err
				}
				if err := runMeshBench(syss[i], path, j); err != nil {
					return Row{}, err
				}
			}
		}
	}

	// The warm path must stay an ordinary cache hit: on the converged
	// fleet, further runs consult no peer.
	var warmFetches uint64
	for i := range syss {
		before := syss[i].Srv.Stats().MeshFetches
		for k := 0; k < meshWarmRuns; k++ {
			if err := runMeshBench(syss[i], "/bin/mb0", 0); err != nil {
				return Row{}, err
			}
		}
		warmFetches += syss[i].Srv.Stats().MeshFetches - before
	}

	var built, fetches, meta, blob uint64
	for i := range syss {
		st := syss[i].Srv.Stats()
		built += st.BuiltBytes
		fetches += st.MeshFetches
		meta += st.MeshMetaRebases
		blob += st.MeshBlobInstalls
	}
	row := Row{Label: "4 independent daemons", Extra: map[string]float64{"built-bytes-total": float64(built)}}
	if meshed {
		row.Label = "4-daemon mesh"
		row.Extra["warm-runs"] = float64(nD * meshWarmRuns)
		row.Extra["warm-mesh-fetches"] = float64(warmFetches)
		row.Extra["mesh-fetches"] = float64(fetches)
		row.Extra["mesh-meta-rebases"] = float64(meta)
		row.Extra["mesh-blob-installs"] = float64(blob)
		if served := meta + blob; served > 0 {
			row.Extra["meta-share-pct"] = 100 * float64(meta) / float64(served)
		}
	}
	return row, nil
}

func meshBenchBP(j int) string {
	return fmt.Sprintf(`(merge /lib/crt0.o (source "c" "extern int mfn%d(int); int main() { return mfn%d(10); }") /lib/mb%d)`,
		j, j, j)
}

func runMeshBench(sys *omos.System, path string, j int) error {
	res, err := sys.Run(path, nil)
	if err != nil {
		return fmt.Errorf("bench mesh: %s: %w", path, err)
	}
	if want := uint64(10 * (j + 2)); res.ExitCode != want {
		return fmt.Errorf("bench mesh: %s: exit = %d, want %d", path, res.ExitCode, want)
	}
	return nil
}
