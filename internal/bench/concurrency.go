package bench

import (
	"fmt"
	"sync"

	"omos/internal/osim"
	"omos/internal/server"
	"omos/internal/workload"
)

// Concurrency measures the concurrent instantiation pipeline: how the
// server behaves when 1/2/4/8 clients hit it at once, cold and warm,
// plus the worker-pool ablation.
//
// All numbers are simulated cycles.  The warm and ablation rows repeat
// to the digit on any machine; the cold rows do not — where a racing
// client joins the winner's singleflight (before a library, after it,
// at the program) decides what it is charged, so their Server column
// and sum-cycles move with the schedule while images-built stays put.
// The Server column of each row is the critical
// path: the worst single client's server-side cycles.  Cold rows show
// the singleflight dedup (N racing clients still cost ~one build, and
// the N-1 losers pay only a lookup); warm rows show hit-path
// throughput scaling (aggregate ops per critical-path megacycle grows
// ~linearly with clients because hits only take the cache read lock);
// the ablation rows isolate the parallel dependency fan-out (workers=1
// serializes codegen's six library builds onto the requester's
// critical path, workers=4 charges the makespan instead).
func Concurrency(cfg Config) (*Table, error) {
	counts := []int{1, 2, 4, 8}
	iters := cfg.ItersHPUX
	if iters < 1 {
		iters = 1
	}
	t := &Table{ID: "concurrency",
		Title: "concurrent instantiation: singleflight, lock decomposition, parallel builds (codegen)",
		Iters: iters,
		Notes: []string{
			"Server column = critical path (worst single client's server cycles)",
			"cold rows: N clients race one uncached program; builds dedup to ~1",
			"warm rows: N clients x iters instantiations against a hot cache",
			fmt.Sprintf("ablation: cold build with the dependency fan-out disabled (workers=1) vs workers=%d",
				server.DefaultBuildWorkers),
		}}

	// Cold: fresh server per client count, all clients instantiate the
	// same uncached program concurrently.
	for _, n := range counts {
		ow, err := workload.SetupOMOS(cfg.CG)
		if err != nil {
			return nil, err
		}
		procs := make([]*osim.Process, n)
		errs := make([]error, n)
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			procs[i] = ow.Kern.Spawn()
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				_, errs[i] = ow.Srv.Instantiate("/bin/codegen", procs[i])
			}(i)
		}
		wg.Wait()
		for _, e := range errs {
			if e != nil {
				return nil, e
			}
		}
		var maxCy, sumCy uint64
		for _, p := range procs {
			cy := p.Clock.Server
			sumCy += cy
			if cy > maxCy {
				maxCy = cy
			}
			p.Release()
		}
		st := ow.Srv.Stats()
		t.Rows = append(t.Rows, Row{
			Label: fmt.Sprintf("Cold, %d clients", n),
			Clock: osim.Clock{Server: maxCy},
			Extra: map[string]float64{
				"images-built": float64(st.ImagesBuilt),
				"sum-cycles":   float64(sumCy),
			},
		})
	}

	// Warm: one hot server; N clients each instantiate iters times.
	ow, err := workload.SetupOMOS(cfg.CG)
	if err != nil {
		return nil, err
	}
	if _, err := ow.Srv.Instantiate("/bin/codegen", nil); err != nil {
		return nil, err
	}
	for _, n := range counts {
		procs := make([]*osim.Process, n)
		errs := make([]error, n)
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			procs[i] = ow.Kern.Spawn()
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				for it := 0; it < iters; it++ {
					if _, err := ow.Srv.Instantiate("/bin/codegen", procs[i]); err != nil {
						errs[i] = err
						return
					}
				}
			}(i)
		}
		wg.Wait()
		for _, e := range errs {
			if e != nil {
				return nil, e
			}
		}
		var maxCy uint64
		for _, p := range procs {
			if p.Clock.Server > maxCy {
				maxCy = p.Clock.Server
			}
			p.Release()
		}
		ops := float64(n * iters)
		row := Row{
			Label: fmt.Sprintf("Warm, %d clients", n),
			Clock: osim.Clock{Server: maxCy},
			Extra: map[string]float64{"ops": ops},
		}
		if maxCy > 0 {
			row.Extra["ops-per-Mcycle"] = ops / (float64(maxCy) / 1e6)
		}
		t.Rows = append(t.Rows, row)
	}

	// Ablation: one cold client, dependency fan-out off vs on.
	for _, workers := range []int{1, server.DefaultBuildWorkers} {
		ow, err := workload.SetupOMOS(cfg.CG)
		if err != nil {
			return nil, err
		}
		ow.Srv.SetBuildWorkers(workers)
		p := ow.Kern.Spawn()
		if _, err := ow.Srv.Instantiate("/bin/codegen", p); err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, Row{
			Label: fmt.Sprintf("Cold, 1 client, workers=%d", workers),
			Clock: osim.Clock{Server: p.Clock.Server},
			Extra: map[string]float64{
				"build-cycles": float64(ow.Srv.Stats().BuildCycles),
			},
		})
		p.Release()
	}
	return t, nil
}
