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

var _ ipc.Backend = (*Backend)(nil)

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

// DefineAllow implements ipc.RebindBackend: a define carrying the
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

// Health implements ipc.HealthBackend: the state and verdicts behind
// `omos health`.  The transport adds the draining flag.
func (b *Backend) Health() ipc.HealthInfo {
	degraded, reason := b.Sys.Srv.Degraded()
	up := b.Sys.Srv.UpgradeStatus()
	verdict := up.Verdict
	if !up.Active {
		verdict = up.LastAborted
	}
	hi := ipc.HealthInfo{
		UptimeMS:           uint64(time.Since(b.start).Milliseconds()),
		InflightBuilds:     b.Sys.Srv.InflightBuilds(),
		WarmLoaded:         uint64(b.Sys.WarmLoaded),
		Degraded:           degraded,
		DegradedReason:     reason,
		QueueDepth:         b.Sys.Srv.Admission().Queued(),
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

// Stats implements ipc.Backend: the memory line, every server counter
// (server.Stats.Format), then the upgrade and mesh state lines.
func (b *Backend) Stats() string {
	mem := b.Sys.MemStats()
	srv := b.Sys.Srv.Stats()
	text := fmt.Sprintf("memory: frames=%d resident=%dKB shared-frames=%d saved=%dKB\n",
		mem.Frames, mem.Bytes()/1024, mem.SharedFrames, mem.SavedBytes()/1024) +
		srv.Format() + b.Sys.Srv.UpgradeStatsLine() + "\n"
	if b.Mesh != nil {
		text += b.Mesh.StatsLine() + "\n"
	}
	return text
}
