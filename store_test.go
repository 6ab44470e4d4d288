package omos_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"omos"
	"omos/internal/daemon"
	"omos/internal/workload"
)

// smallCG keeps the end-to-end store tests fast.
var smallCG = workload.CodegenParams{Units: 4, FuncsPerUnit: 4, HotIters: 2}

func newStoreSys(t *testing.T, dir string) *omos.System {
	t.Helper()
	sys, err := omos.NewSystemWith(omos.Options{StoreDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := daemon.InstallWorkloads(sys, smallCG); err != nil {
		t.Fatal(err)
	}
	return sys
}

// instantiateCodegen instantiates /bin/codegen against a fresh process
// and returns the server cycles that instantiation charged it.
func instantiateCodegen(t *testing.T, sys *omos.System) uint64 {
	t.Helper()
	p := sys.Kern.Spawn()
	defer p.Release()
	if _, err := sys.Srv.Instantiate("/bin/codegen", p); err != nil {
		t.Fatal(err)
	}
	return p.Clock.Server
}

// TestWarmRestartEndToEnd is the acceptance path: build codegen with a
// store attached, tear the system down, boot a fresh one on the same
// directory, and re-instantiate without a single image build — at a
// measurably lower cost than the cold session, and without evaluating
// a library.
func TestWarmRestartEndToEnd(t *testing.T) {
	dir := t.TempDir()

	sys1 := newStoreSys(t, dir)
	if sys1.WarmLoaded != 0 {
		t.Fatalf("cold boot warm-loaded %d images", sys1.WarmLoaded)
	}
	coldCycles := instantiateCodegen(t, sys1)
	built := sys1.Srv.Stats().ImagesBuilt
	if built == 0 {
		t.Fatal("cold session built nothing")
	}
	res, err := sys1.Run("/bin/codegen", nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys1.Close(); err != nil {
		t.Fatal(err)
	}

	sys2 := newStoreSys(t, dir)
	if sys2.WarmLoaded == 0 {
		t.Fatal("rebooted system warm-loaded nothing")
	}
	warmCycles := instantiateCodegen(t, sys2)
	if sys2.Srv.Stats().ImagesBuilt != 0 {
		t.Fatalf("warm session rebuilt %d images (want 0)", sys2.Srv.Stats().ImagesBuilt)
	}
	// Its libraries were planned from the shapes their records keep,
	// seeded before the workloads were defined: only the program was
	// evaluated.
	if st := sys2.Srv.Stats(); st.PlanEvaluations != 1 || st.ShapeHits == 0 {
		t.Fatalf("warm session made %d evaluations, %d shape hits; want the program's one, its libraries from their shapes",
			st.PlanEvaluations, st.ShapeHits)
	}
	if warmCycles*2 >= coldCycles {
		t.Fatalf("warm instantiation not measurably cheaper: warm=%d cold=%d",
			warmCycles, coldCycles)
	}
	// The reconstructed image must execute identically.
	res2, err := sys2.Run("/bin/codegen", nil)
	if err != nil {
		t.Fatal(err)
	}
	if res2.ExitCode != res.ExitCode || res2.Output != res.Output {
		t.Fatalf("warm run diverged: exit %d vs %d", res2.ExitCode, res.ExitCode)
	}
	if err := sys2.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCorruptStoreEntryEndToEnd corrupts one persisted blob on disk;
// the next session must reject it (counting the reject) and
// transparently rebuild instead of failing.
func TestCorruptStoreEntryEndToEnd(t *testing.T) {
	dir := t.TempDir()

	sys1 := newStoreSys(t, dir)
	instantiateCodegen(t, sys1)
	if _, err := sys1.Run("/bin/codegen", nil); err != nil {
		t.Fatal(err)
	}
	if err := sys1.Close(); err != nil {
		t.Fatal(err)
	}

	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var blobs []string
	for _, de := range ents {
		if strings.HasSuffix(de.Name(), ".img") {
			blobs = append(blobs, filepath.Join(dir, de.Name()))
		}
	}
	if len(blobs) == 0 {
		t.Fatal("no blobs persisted")
	}
	b, err := os.ReadFile(blobs[0])
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0xff
	if err := os.WriteFile(blobs[0], b, 0o644); err != nil {
		t.Fatal(err)
	}

	// The damage is found at boot if it hit the record's head, and when
	// the first request reads the record if it hit the body.
	sys2 := newStoreSys(t, dir)
	instantiateCodegen(t, sys2)
	if sys2.Srv.Stats().StoreCorrupt == 0 {
		t.Fatalf("corrupt blob not rejected: %+v", sys2.Srv.Stats())
	}
	res, err := sys2.Run("/bin/codegen", nil)
	if err != nil {
		t.Fatalf("instantiation after corruption failed: %v", err)
	}
	if sys2.Srv.Stats().ImagesBuilt == 0 {
		t.Fatal("corrupt entry was not rebuilt")
	}
	_ = res
	if err := sys2.Close(); err != nil {
		t.Fatal(err)
	}
}
