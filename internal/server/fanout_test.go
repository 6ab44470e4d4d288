package server_test

import (
	"bytes"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"omos/internal/mgraph"
	"omos/internal/server"
	"omos/internal/store"
	"omos/internal/workload"
)

// fanoutWorld boots a workload world; serial worlds evaluate and build
// on one goroutine (SetBuildWorkers(1)).
func fanoutWorld(t *testing.T, serial bool) *workload.OMOSWorld {
	t.Helper()
	w, err := workload.SetupOMOS(oracleCG)
	if err != nil {
		t.Fatal(err)
	}
	if serial {
		w.Srv.SetBuildWorkers(1)
	}
	return w
}

// runLs instantiates /bin/ls and runs it to a clean exit.
func runLs(t *testing.T, w *workload.OMOSWorld) {
	t.Helper()
	inst, err := w.Srv.Instantiate("/bin/ls", nil)
	if err != nil {
		t.Fatal(err)
	}
	p := w.Kern.Spawn()
	defer p.Release()
	if err := w.Srv.MapInstance(p, inst); err != nil {
		t.Fatal(err)
	}
	if err := p.SetupStack([]string{"ls", "/"}); err != nil {
		t.Fatal(err)
	}
	p.CPU.PC = inst.Entry()
	if code, err := w.Kern.RunToExit(p); err != nil || code != 0 {
		t.Fatalf("/bin/ls: exit = %d, %v", code, err)
	}
}

// TestEvalFanoutPanicContained: a panic in one operand's evaluation,
// on whichever goroutine the fan-out ran it, fails that request as a
// recovered panic and leaves the server serving.
func TestEvalFanoutPanicContained(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	w := fanoutWorld(t, false)
	w.Srv.RegisterSpecializer("boom", func([]string, *mgraph.Value) (*mgraph.Value, error) {
		panic("specializer exploded")
	})
	if err := w.Srv.Define("/bin/boom", `(merge /lib/crt0.o
  (source "c" "int main() { return 0; }")
  (specialize "boom" (source "c" "int boom_val = 1;"))
  (source "c" "int other_val = 2;"))`); err != nil {
		t.Fatal(err)
	}
	before := w.Srv.Stats().Recovered
	if _, err := w.Srv.Instantiate("/bin/boom", nil); err == nil || !strings.Contains(err.Error(), "recovered panic") {
		t.Fatalf("err = %v, want a recovered panic", err)
	}
	if got := w.Srv.Stats().Recovered - before; got != 1 {
		t.Fatalf("Stats.Recovered rose by %d, want 1", got)
	}
	runLs(t, w)
}

// TestParallelEvalMatchesSerial: evaluating operands and building
// library branches concurrently produces exactly what the serial
// pipeline does — cache keys, content keys and encoded store records —
// and reports the first error by operand order, not by time.
func TestParallelEvalMatchesSerial(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	serial, parallel := fanoutWorld(t, true), fanoutWorld(t, false)
	if parallel.Srv.BuildWorkers() != server.DefaultBuildWorkers {
		t.Fatalf("default workers = %d", parallel.Srv.BuildWorkers())
	}

	paths := []string{"/bin/ls", "/bin/codegen"}
	for _, p := range serial.Srv.List("/lib") {
		if _, isLib, err := serial.Srv.ExportMeta(p); err == nil && isLib {
			paths = append(paths, p)
		}
	}
	if len(paths) < 3+len(workload.ExtraLibs()) {
		t.Fatalf("subjects %v miss workload libraries", paths)
	}
	record := func(w *workload.OMOSWorld, path string) (*server.Instance, []byte) {
		t.Helper()
		inst, err := w.Srv.Instantiate(path, nil)
		if err != nil {
			t.Fatal(err)
		}
		blob, err := store.Encode(w.Srv.RecordOf(inst))
		if err != nil {
			t.Fatal(err)
		}
		return inst, blob
	}
	for _, path := range paths {
		is, bs := record(serial, path)
		ip, bp := record(parallel, path)
		if is.Key != ip.Key || is.ContentKey != ip.ContentKey {
			t.Fatalf("%s: keys diverge: serial %s/%s, parallel %s/%s", path, is.Key, is.ContentKey, ip.Key, ip.ContentKey)
		}
		if !bytes.Equal(bs, bp) {
			t.Fatalf("%s: encoded store records diverge (%d vs %d bytes)", path, len(bs), len(bp))
		}
	}

	errSlow, errFast := errors.New("operand 0 failed"), errors.New("operand 1 failed")
	for _, w := range []*workload.OMOSWorld{serial, parallel} {
		w.Srv.RegisterSpecializer("fail-slow", func([]string, *mgraph.Value) (*mgraph.Value, error) {
			time.Sleep(20 * time.Millisecond)
			return nil, errSlow
		})
		w.Srv.RegisterSpecializer("fail-fast", func([]string, *mgraph.Value) (*mgraph.Value, error) {
			return nil, errFast
		})
		if err := w.Srv.Define("/bin/twofail", `(merge
  (specialize "fail-slow" (source "c" "int a_val = 1;"))
  (specialize "fail-fast" (source "c" "int b_val = 2;")))`); err != nil {
			t.Fatal(err)
		}
		if _, err := w.Srv.Instantiate("/bin/twofail", nil); !errors.Is(err, errSlow) {
			t.Fatalf("workers=%d: err = %v, want operand 0's error", w.Srv.BuildWorkers(), err)
		}
	}
}
