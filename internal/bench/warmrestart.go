package bench

import (
	"fmt"
	"os"

	"omos/internal/osim"
	"omos/internal/store"
	"omos/internal/workload"
)

// WarmRestart measures what the persistent image store buys across
// daemon restarts: the server-side cost of instantiating codegen on a
// cold boot (full link + write-through), on the same boot again
// (in-memory cache hit), and on a *rebooted* system attaching the
// same store directory (no link at all — the paper's "cached images
// persist across server invocations" claim made concrete).
func WarmRestart(cfg Config) (*Table, error) {
	dir, err := os.MkdirTemp("", "omos-bench-store-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	t := &Table{ID: "warmrestart", Title: "persistent image store: cold boot vs warm restart (codegen)", Iters: 1,
		Notes: []string{
			"rows show the instantiating process's server-side cycles; store I/O",
			"(StoreWritePerByte / StoreLoadPerByte) accrues to the server's global clock",
			"warm-restart row is a fresh kernel+server warm-loading the previous session's store",
		}}

	instantiate := func(ow *workload.OMOSWorld) (*osim.Process, error) {
		p := ow.Kern.Spawn()
		if _, err := ow.Srv.Instantiate("/bin/codegen", p); err != nil {
			p.Release()
			return nil, err
		}
		return p, nil
	}

	// Session 1: cold build plus the in-memory warm hit.
	ow1, err := workload.SetupOMOS(cfg.CG)
	if err != nil {
		return nil, err
	}
	st1, err := store.Open(dir, 0)
	if err != nil {
		return nil, err
	}
	ow1.Srv.AttachStore(st1)
	for i, label := range []string{"Cold boot (build + persist)", "Same boot (in-memory hit)"} {
		p, err := instantiate(ow1)
		if err != nil {
			return nil, err
		}
		row := Row{Label: label, Clock: osim.Clock{Server: p.Clock.Server}, Extra: map[string]float64{}}
		if i == 0 {
			row.Extra["images-built"] = float64(ow1.Srv.Stats().ImagesBuilt)
			row.Extra["store-bytes"] = float64(ow1.Srv.Stats().StoreBytes)
		}
		p.Release()
		t.Rows = append(t.Rows, row)
	}
	if err := ow1.Srv.CloseStore(); err != nil {
		return nil, err
	}

	// Session 2: a fresh machine, same store directory.  Attach reads
	// every record's head; instantiation wakes each image from its body,
	// a cache hit with zero links.
	ow2, err := workload.SetupOMOS(cfg.CG)
	if err != nil {
		return nil, err
	}
	st2, err := store.Open(dir, 0)
	if err != nil {
		return nil, err
	}
	warm := ow2.Srv.AttachStore(st2)
	p, err := instantiate(ow2)
	if err != nil {
		return nil, err
	}
	if ow2.Srv.Stats().ImagesBuilt != 0 {
		return nil, fmt.Errorf("bench warmrestart: rebooted server rebuilt %d images (want 0)",
			ow2.Srv.Stats().ImagesBuilt)
	}
	row := Row{Label: "Warm restart (from store)", Clock: osim.Clock{Server: p.Clock.Server},
		Extra: map[string]float64{
			"warm-loaded":  float64(warm),
			"store-loads":  float64(ow2.Srv.Stats().StoreLoads),
			"images-built": float64(ow2.Srv.Stats().ImagesBuilt),
		}}
	p.Release()
	t.Rows = append(t.Rows, row)
	if err := ow2.Srv.CloseStore(); err != nil {
		return nil, err
	}
	return t, nil
}
