package bench

import (
	"os"

	"omos/internal/fault"
	"omos/internal/osim"
	"omos/internal/store"
	"omos/internal/workload"
)

// degradedReboots is how many warm restarts each mode averages over.
// Enough store reads flow past the 1% fault rate to show the degraded
// shape while the table stays cheap to regenerate.
const degradedReboots = 10

// Degraded measures what graceful degradation costs: the warm-restart
// instantiation latency of codegen when every store read is clean,
// versus when 1% of store reads return corrupted bytes (injected via
// internal/fault, seeded).  A corrupted read fails to
// decode, the blob is quarantined, and the image is rebuilt from
// source on demand — the request still succeeds, it just pays the
// link again (and write-through self-heals the store for the next
// reboot).  The gap between the rows is the price of a lossy disk
// under the quarantine-and-rebuild policy.
//
// The seed fixes which store reads trip, counted in read order; which
// blob a given read fetches follows the store's LRU order — the order
// images were last built or touched in, which the parallel dependency
// fan-out leaves to the scheduler.  Every server here therefore runs
// one build worker: libraries are visited in link order, the same
// blobs are lost on every run, and the table repeats to the digit.
func Degraded(cfg Config) (*Table, error) {
	t := &Table{ID: "degraded", Title: "degraded store: warm-hit latency, clean vs 1% injected read faults (codegen)",
		Iters: degradedReboots,
		Notes: []string{
			"each row averages the instantiating process's server cycles over warm restarts",
			"degraded row arms store.read:corrupt:p=0.01 (seed 3); corrupt blobs quarantine + rebuild",
			"rebuilds counts images relinked because their warm load was lost to a fault",
			"builds run on one worker, so Server is total work, not the fan-out's makespan",
		}}

	for _, mode := range []struct {
		label  string
		faults bool
	}{
		{"Warm restart (clean)", false},
		{"Warm restart (1% read faults)", true},
	} {
		dir, err := os.MkdirTemp("", "omos-bench-degraded-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)

		// Seed session: cold-build codegen into the store.
		ow, err := workload.SetupOMOS(cfg.CG)
		if err != nil {
			return nil, err
		}
		st, err := store.Open(dir, 0)
		if err != nil {
			return nil, err
		}
		ow.Srv.SetBuildWorkers(1)
		ow.Srv.AttachStore(st)
		p := ow.Kern.Spawn()
		if _, err := ow.Srv.Instantiate("/bin/codegen", p); err != nil {
			return nil, err
		}
		p.Release()
		if err := ow.Srv.CloseStore(); err != nil {
			return nil, err
		}

		var f *fault.Set
		if mode.faults {
			f = fault.New(3)
			f.Enable(fault.Rule{Site: fault.SiteStoreRead, Kind: fault.KindCorrupt, Prob: 0.01})
		}

		row := Row{Label: mode.label, Extra: map[string]float64{}}
		for i := 0; i < degradedReboots; i++ {
			ow2, err := workload.SetupOMOS(cfg.CG)
			if err != nil {
				return nil, err
			}
			st2, err := store.Open(dir, 0)
			if err != nil {
				return nil, err
			}
			st2.SetFaults(f)
			ow2.Srv.SetBuildWorkers(1)
			ow2.Srv.AttachStore(st2)
			p2 := ow2.Kern.Spawn()
			if _, err := ow2.Srv.Instantiate("/bin/codegen", p2); err != nil {
				return nil, err
			}
			row.Clock.Add(osim.Clock{Server: p2.Clock.Server})
			row.Extra["rebuilds"] += float64(ow2.Srv.Stats().ImagesBuilt)
			row.Extra["warm-loaded"] += float64(ow2.Srv.Stats().WarmLoaded)
			// Cumulative: the quarantine directory persists across reboots.
			row.Extra["quarantined"] = float64(ow2.Srv.Stats().StoreQuarantined)
			p2.Release()
			if err := ow2.Srv.CloseStore(); err != nil {
				return nil, err
			}
		}
		if f != nil {
			row.Extra["fault-trips"] = float64(f.Trips(fault.SiteStoreRead))
		}
		row.Clock.Server /= uint64(degradedReboots)
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}
