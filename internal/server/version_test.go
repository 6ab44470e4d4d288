package server

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"omos/internal/mgraph"
)

const (
	swapLibA = `(constraint-list "T" 0x1000000 "D" 0x41000000)
(specialize "gate" (source "c" "int fa() { return %d; }"))`
	swapLibB = `(constraint-list "T" 0x1100000 "D" 0x41100000)
(source "c" "int fb() { return %d; }")`
	swapProg = `(merge /lib/crt0.o
  (source "c" "extern int fa(); extern int fb(); int main() { return fa() + fb(); }")
  /lib/a /lib/b)`
)

// TestUpgradeCommitIsOneSwap: a request reads one namespace version
// from its root to its reply.  v1 is (fa, fb) = (1, 0) and v2 is
// (0, 10); the request blocks inside /lib/a's evaluation while both
// libraries move to v2, by an upgrade commit or by two plain defines.
// The exit is v1's 1 or v2's 10, never 11 (/lib/a from v1 spliced with
// /lib/b from v2).
func TestUpgradeCommitIsOneSwap(t *testing.T) {
	for _, tc := range []struct {
		name  string
		stage bool
		swap  func(s *Server) error
	}{
		{"commit", true, func(s *Server) error { return s.UpgradeCommit() }},
		{"define", false, func(s *Server) error {
			if err := s.DefineLibraryAllow("/lib/a", fmt.Sprintf(swapLibA, 0), true); err != nil {
				return err
			}
			return s.DefineLibraryAllow("/lib/b", fmt.Sprintf(swapLibB, 10), true)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := newTestServer(t)
			s.SetBuildWorkers(1)
			entered, release := make(chan struct{}), make(chan struct{})
			var once sync.Once
			s.RegisterSpecializer("gate", func(_ []string, v *mgraph.Value) (*mgraph.Value, error) {
				once.Do(func() {
					close(entered)
					<-release
				})
				return v, nil
			})
			if err := s.DefineLibrary("/lib/a", fmt.Sprintf(swapLibA, 1)); err != nil {
				t.Fatal(err)
			}
			if err := s.DefineLibrary("/lib/b", fmt.Sprintf(swapLibB, 0)); err != nil {
				t.Fatal(err)
			}
			if err := s.Define("/bin/ab", swapProg); err != nil {
				t.Fatal(err)
			}
			if tc.stage {
				if _, err := s.UpgradeStart(0); err != nil {
					t.Fatal(err)
				}
				if err := s.UpgradeStage("/lib/a", fmt.Sprintf(swapLibA, 0), true); err != nil {
					t.Fatal(err)
				}
				if err := s.UpgradeStage("/lib/b", fmt.Sprintf(swapLibB, 10), true); err != nil {
					t.Fatal(err)
				}
			}
			type result struct {
				inst *Instance
				err  error
			}
			done := make(chan result, 1)
			go func() {
				inst, err := s.Instantiate("/bin/ab", nil)
				done <- result{inst, err}
			}()
			<-entered
			err := tc.swap(s)
			close(release)
			r := <-done
			if err != nil {
				t.Fatal(err)
			}
			if r.err != nil {
				t.Fatal(r.err)
			}
			if _, code := runInstance(t, s, r.inst, nil); code != 1 && code != 10 {
				t.Fatalf("exit = %d, want v1's 1 or v2's 10", code)
			}
		})
	}
}

// TestNamespaceVersionConcurrentReaders: readers instantiate and run
// while a writer flips /lib/up between v1 and v2 through upgrade
// epochs and mounts and unmounts an unused prefix.  Every run sees one
// version whole: exit 42 (v1) or 43 (v2).
func TestNamespaceVersionConcurrentReaders(t *testing.T) {
	s := newTestServer(t)
	defineUpgradeWorld(t, s)
	const readers = 4
	stop := make(chan struct{})
	errs := make(chan error, readers+1)
	var runs atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				inst, err := s.Instantiate("/bin/t", nil)
				if err != nil {
					errs <- err
					return
				}
				p := s.Kernel().Spawn()
				err = s.MapInstance(p, inst)
				if err == nil {
					err = p.SetupStack(nil)
				}
				var code uint64
				if err == nil {
					p.CPU.PC = inst.Entry()
					code, err = s.Kernel().RunToExit(p)
				}
				p.Release()
				if err == nil && code != 42 && code != 43 {
					err = fmt.Errorf("exit = %d, want v1's 42 or v2's 43", code)
				}
				if err != nil {
					errs <- err
					return
				}
				runs.Add(1)
			}
		}()
	}
	// At least six flips, and on until the readers have run 64 times.
	for i := 0; i < 6 || (runs.Load() < 64 && len(errs) == 0); i++ {
		src := upLibV2
		if i%2 == 1 {
			src = upLibV1
		}
		err := func() error {
			if _, err := s.UpgradeStart(50 * (i % 3)); err != nil {
				return err
			}
			if err := s.UpgradeStage("/lib/up", src, true); err != nil {
				return err
			}
			if err := s.Mount("/remote", failFetcher{}); err != nil {
				return err
			}
			if err := s.UpgradeCommit(); err != nil {
				return err
			}
			return s.Unmount("/remote")
		}()
		if err != nil {
			errs <- err
			break
		}
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
