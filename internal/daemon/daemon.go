// Package daemon adapts an omos.System to the ipc.Backend protocol
// and installs the evaluation workloads — the testable core of
// cmd/omosd.
package daemon

import (
	"context"
	"fmt"
	"strings"
	"time"

	"omos"
	"omos/internal/ipc"
	"omos/internal/mesh"
	"omos/internal/obj"
	"omos/internal/vm"
	"omos/internal/workload"
)

// Backend serves the OMOS daemon protocol over an omos.System.
type Backend struct {
	Sys *omos.System
	// Mesh federates this daemon into a mesh (nil outside one); set it
	// before serving traffic.
	Mesh  *mesh.Node
	start time.Time
}

var (
	_ ipc.Backend        = (*Backend)(nil)
	_ ipc.HealthBackend  = (*Backend)(nil)
	_ ipc.GraphBackend   = (*Backend)(nil)
	_ ipc.BatchBackend   = (*Backend)(nil)
	_ ipc.ExplainBackend = (*Backend)(nil)
	_ ipc.RebindBackend  = (*Backend)(nil)
	_ ipc.UpgradeBackend = (*Backend)(nil)
	_ ipc.MeshBackend    = (*Backend)(nil)
)

// New wraps a system.
func New(sys *omos.System) *Backend { return &Backend{Sys: sys, start: time.Now()} }

// InstallWorkloads preinstalls the evaluation workloads (/bin/ls,
// /bin/codegen, /lib/libc plus codegen's auxiliary libraries) and the
// filesystem fixtures.
func InstallWorkloads(sys *omos.System, cg workload.CodegenParams) error {
	if err := workload.MakeFixtures(sys.Kern.FS); err != nil {
		return err
	}
	if err := sys.DefineLibrary("/lib/libc", workload.LibcBlueprint()); err != nil {
		return err
	}
	libBase := uint64(0x0200_0000)
	for i, lib := range workload.ExtraLibs() {
		bp := fmt.Sprintf("(constraint-list \"T\" %#x \"D\" %#x)\n(merge (source \"c\" %q))",
			libBase+uint64(i)*0x40_0000, 0x4200_0000+uint64(i)*0x40_0000, lib.Source)
		if err := sys.DefineLibrary("/lib/"+lib.Name, bp); err != nil {
			return err
		}
	}
	if err := sys.Define("/bin/ls",
		fmt.Sprintf("(merge /lib/crt0.o (source \"c\" %q) /lib/libc)", workload.LsSource)); err != nil {
		return err
	}
	return sys.Define("/bin/codegen", workload.CodegenBlueprint(cg))
}

// Define implements ipc.Backend.
func (b *Backend) Define(path, bp string) error { return b.Sys.Define(path, bp) }

// DefineLibrary implements ipc.Backend.
func (b *Backend) DefineLibrary(path, bp string) error { return b.Sys.DefineLibrary(path, bp) }

// PutObjectBytes implements ipc.Backend.
func (b *Backend) PutObjectBytes(path string, rof []byte) error {
	o, err := obj.Decode(rof)
	if err != nil {
		return err
	}
	return b.Sys.PutObject(path, o)
}

// AssembleTo implements ipc.Backend.
func (b *Backend) AssembleTo(path, src string) error { return b.Sys.Assemble(path, src) }

// CompileTo implements ipc.Backend.
func (b *Backend) CompileTo(dir, unit, src string) ([]string, error) {
	return b.Sys.CompileC(dir, unit, src)
}

// List implements ipc.Backend.
func (b *Backend) List(prefix string) []string { return b.Sys.List(prefix) }

// Remove implements ipc.Backend.
func (b *Backend) Remove(path string) { b.Sys.Srv.Remove(path) }

// DefineAllow implements ipc.RebindBackend: Define carrying the
// request's explicit-rebind flag through to the server's guard.
func (b *Backend) DefineAllow(path, bp string, allow bool) error {
	return b.Sys.Srv.DefineAllow(path, bp, allow)
}

// DefineLibraryAllow implements ipc.RebindBackend.
func (b *Backend) DefineLibraryAllow(path, bp string, allow bool) error {
	return b.Sys.Srv.DefineLibraryAllow(path, bp, allow)
}

// RemoveAllow implements ipc.RebindBackend.
func (b *Backend) RemoveAllow(path string, allow bool) error {
	return b.Sys.Srv.RemoveAllow(path, allow)
}

// Explain implements ipc.ExplainBackend: the binding audit trail
// behind `omos explain`.
func (b *Backend) Explain(sym string) (string, error) {
	return b.Sys.Srv.Explain(sym)
}

// UpgradeStart implements ipc.UpgradeBackend.
func (b *Backend) UpgradeStart(canaryPct int) (string, error) {
	return b.Sys.Srv.UpgradeStart(canaryPct)
}

// UpgradeStage implements ipc.UpgradeBackend.
func (b *Backend) UpgradeStage(path, bp string, isLib bool) error {
	return b.Sys.Srv.UpgradeStage(path, bp, isLib)
}

// UpgradeCommit implements ipc.UpgradeBackend.
func (b *Backend) UpgradeCommit() error { return b.Sys.Srv.UpgradeCommit() }

// UpgradeRollback implements ipc.UpgradeBackend.
func (b *Backend) UpgradeRollback(reason string) error {
	return b.Sys.Srv.UpgradeRollback(reason)
}

// UpgradeStatus implements ipc.UpgradeBackend.
func (b *Backend) UpgradeStatus() (string, bool) {
	return b.Sys.Srv.UpgradeStatsLine(), b.Sys.Srv.UpgradeStatus().Active
}

// Run implements ipc.Backend.
func (b *Backend) Run(name string, args []string, bootstrap bool) (ipc.RunOutcome, error) {
	var res *omos.RunResult
	var err error
	if bootstrap {
		res, err = b.Sys.RunBootstrap(name, args)
	} else {
		res, err = b.Sys.Run(name, args)
	}
	if err != nil {
		return ipc.RunOutcome{}, err
	}
	return ipc.RunOutcome{
		ExitCode: res.ExitCode,
		Output:   res.Output,
		User:     res.Clock.User,
		Sys:      res.Clock.Sys,
		Server:   res.Clock.Server,
		Wait:     res.Clock.Wait,
	}, nil
}

// InstantiateBatch implements ipc.BatchBackend: OpInstantiateBatch
// fans the named meta-objects into the server's build executor,
// warming the image cache without running anything.  Per-item
// completions reach done as they land and the transport streams each
// one back immediately.
func (b *Backend) InstantiateBatch(paths []string, done func(i int, err error)) {
	b.Sys.Srv.InstantiateBatch(context.Background(), paths, nil, done)
}

// Disasm implements ipc.Backend.
func (b *Backend) Disasm(path string) (string, error) {
	o, err := b.Sys.Srv.GetObject(path)
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	sb.WriteString(o.String())
	sb.WriteString("\n")
	sb.WriteString(vm.Disassemble(o.Text, 0))
	return sb.String(), nil
}

// ExportMeta implements ipc.Backend (namespace federation).
func (b *Backend) ExportMeta(path string) (string, bool, error) {
	return b.Sys.Srv.ExportMeta(path)
}

// ExportObject implements ipc.Backend (namespace federation).
func (b *Backend) ExportObject(path string) ([]byte, error) {
	return b.Sys.Srv.ExportObject(path)
}

// errNoMesh answers mesh operations on a daemon that is not federated.
var errNoMesh = fmt.Errorf("daemon is not in a mesh")

// MeshFetch implements ipc.MeshBackend.
func (b *Backend) MeshFetch(req *ipc.MeshReq) (*ipc.MeshInfo, []byte, error) {
	if b.Mesh == nil {
		return nil, nil, errNoMesh
	}
	return b.Mesh.AcceptFetch(req)
}

// MeshPut implements ipc.MeshBackend.
func (b *Backend) MeshPut(req *ipc.MeshReq) error {
	if b.Mesh == nil {
		return errNoMesh
	}
	return b.Mesh.AcceptPut(req)
}

// MeshGossip implements ipc.MeshBackend.
func (b *Backend) MeshGossip(req *ipc.MeshReq) (*ipc.MeshInfo, error) {
	if b.Mesh == nil {
		return nil, errNoMesh
	}
	return b.Mesh.AcceptGossip(req)
}

// MeshRebalance implements ipc.MeshBackend.
func (b *Backend) MeshRebalance(req *ipc.MeshReq) (*ipc.MeshInfo, error) {
	if b.Mesh == nil {
		return nil, errNoMesh
	}
	return b.Mesh.AcceptRebalance(req)
}

// Health implements ipc.HealthBackend: the liveness and robustness
// counters behind `omos health`.  The transport adds its own
// recovered-panic count and the draining flag.
func (b *Backend) Health() ipc.HealthInfo {
	st := b.Sys.Srv.Stats()
	degraded, reason := b.Sys.Srv.Degraded()
	up := b.Sys.Srv.UpgradeStatus()
	verdict := up.Verdict
	if !up.Active {
		verdict = up.LastAborted
	}
	hi := ipc.HealthInfo{
		UptimeMS:           uint64(time.Since(b.start).Milliseconds()),
		InflightBuilds:     b.Sys.Srv.InflightBuilds(),
		Recovered:          st.Recovered,
		Quarantined:        st.StoreQuarantined,
		WarmLoaded:         st.WarmLoaded,
		Degraded:           degraded,
		DegradedReason:     reason,
		QueueDepth:         b.Sys.Srv.Admission().Queued(),
		Shed:               st.Shed,
		BuildTimeouts:      st.BuildTimeouts,
		ScrubChecked:       st.ScrubChecked,
		ScrubQuarantined:   st.ScrubQuarantined,
		NodesBuilt:         st.NodesBuilt,
		NodesResumed:       st.NodesResumed,
		NodesCheckpointed:  st.NodesCheckpointed,
		CheckpointBytes:    st.CheckpointBytes,
		UpgradeActive:      up.Active,
		UpgradeEpoch:       up.Epoch,
		UpgradeCanaryPct:   up.CanaryPct,
		UpgradeRollingBack: up.RollingBack,
		UpgradeVerdict:     verdict,
	}
	if b.Mesh != nil {
		b.Mesh.Health(&hi)
	}
	return hi
}

// Graph implements ipc.GraphBackend: the build-graph report behind
// `omos graph`.
func (b *Backend) Graph() string { return b.Sys.Srv.GraphReport() }

// Stats implements ipc.Backend.
func (b *Backend) Stats() string {
	st := b.Sys.MemStats()
	srv := b.Sys.Srv.Stats()
	return fmt.Sprintf(
		"cache: hits=%d misses=%d images=%d relocs=%d buildcycles=%d\n"+
			"rebase: slides=%d misses=%d patches=%d dirty-pages=%d shared-pages=%d\n"+
			"memory: frames=%d resident=%dKB shared-frames=%d saved=%dKB\n"+
			"store: warm-loaded=%d loads=%d stores=%d evictions=%d corrupt=%d bytes=%d\n"+
			"graph: built=%d cached=%d resumed=%d failed=%d checkpoints=%d ckpt-failed=%d ckpt-bytes=%d\n"+
			"resolve: searches=%d hits=%d misses=%d invalidations=%d pin-violations=%d rebinds-blocked=%d rebinds-allowed=%d\n",
		srv.CacheHits, srv.CacheMisses, srv.ImagesBuilt, srv.RelocsApplied, srv.BuildCycles,
		srv.Rebases, srv.RebaseMiss, srv.RebasePatches, srv.RebaseDirtyPages, srv.RebaseSharedPages,
		st.Frames, st.Bytes()/1024, st.SharedFrames, st.SavedBytes()/1024,
		srv.WarmLoaded, srv.StoreLoads, srv.StoreStores, srv.StoreEvictions, srv.StoreCorrupt, srv.StoreBytes,
		srv.NodesBuilt, srv.NodesCached, srv.NodesResumed, srv.NodesFailed,
		srv.NodesCheckpointed, srv.CheckpointsFailed, srv.CheckpointBytes,
		srv.SymbolSearches, srv.BindingHits, srv.BindingMisses, srv.BindingInvalidations,
		srv.PinViolations, srv.RebindsBlocked, srv.RebindsAllowed) +
		b.Sys.Srv.UpgradeStatsLine() + "\n" + b.meshLine()
}

// meshLine renders the mesh stats line (empty outside a mesh).
func (b *Backend) meshLine() string {
	if b.Mesh == nil {
		return ""
	}
	return b.Mesh.StatsLine() + "\n"
}
