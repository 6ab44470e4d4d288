package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"runtime"
	"time"

	"omos"
	"omos/internal/asm"
	"omos/internal/blueprint"
	"omos/internal/constraint"
	"omos/internal/daemon"
	"omos/internal/jigsaw"
	"omos/internal/link"
	"omos/internal/mgraph"
	"omos/internal/minic"
	"omos/internal/obj"
	"omos/internal/store"
	"omos/internal/workload"
)

// A probe calls one layer directly, on the workloads' own inputs, and
// reports the median of its repetitions.  It repeats probeReps times,
// or stops early once probeBudget has passed — but never before
// probeMinReps — so the slow probes of today (a 200 ms warm codegen
// instantiate) fit a run, and get their full thirty repetitions once a
// later change makes them fast.
const (
	probeReps    = 30
	probeMinReps = 5
	probeBudget  = time.Second
)

// prober collects probe results under their metric names.
type prober struct {
	out  map[string]float64
	reps map[string]int
	err  error
}

// scale converts nanoseconds to the unit perLayerDefs gives the metric.
func scale(name string, ns float64) float64 {
	for _, d := range perLayerDefs {
		if d.Name == name {
			switch d.Unit {
			case "ms":
				return ns / 1e6
			case "us":
				return ns / 1e3
			}
		}
	}
	return ns
}

// repeat calls f up to probeReps times within probeBudget, timing only
// f; prep (which may be nil) readies each repetition outside the timer.
// It returns each call's nanoseconds.  The first error ends all probing.
func (p *prober) repeat(name string, prep func() error, f func() error) []float64 {
	var ns []float64
	began := time.Now()
	for p.err == nil && len(ns) < probeReps && (len(ns) < probeMinReps || time.Since(began) < probeBudget) {
		if prep != nil {
			if err := prep(); err != nil {
				p.err = fmt.Errorf("probe %s: %w", name, err)
				break
			}
		}
		start := time.Now()
		err := f()
		ns = append(ns, float64(time.Since(start)))
		if err != nil {
			p.err = fmt.Errorf("probe %s: %w", name, err)
		}
	}
	return ns
}

// time reports the median of f's repetitions under name.
func (p *prober) time(name string, prep func() error, f func() error) {
	if ns := p.repeat(name, prep, f); p.err == nil {
		p.out[name] = scale(name, median(ns))
		p.reps[name] = len(ns)
	}
}

// allocs reports the heap allocations of one call of f (mean of n
// calls, so background allocation is spread thin).
func (p *prober) allocs(name string, n int, f func() error) {
	if p.err != nil {
		return
	}
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for i := 0; i < n; i++ {
		if err := f(); err != nil {
			p.err = fmt.Errorf("probe %s: %w", name, err)
			return
		}
	}
	runtime.ReadMemStats(&b)
	p.out[name] = float64(b.Mallocs-a.Mallocs) / float64(n)
	p.reps[name] = n
}

// probeCtx is a namespace-free mgraph.Context: it compiles source
// operators exactly as the server's does and answers content hashes
// from the path alone, so mgraph's own evaluation and hashing can be
// timed without a server (and without the server's hash memo).
type probeCtx struct{}

func (probeCtx) LookupObject(p string) (*obj.Object, error) {
	return nil, fmt.Errorf("probe context holds no objects (%s)", p)
}
func (probeCtx) LookupMeta(p string) (*mgraph.Meta, error) {
	return nil, fmt.Errorf("probe context holds no meta-objects (%s)", p)
}
func (probeCtx) ContentHash(p string) (string, error) {
	h := sha256.Sum256([]byte(p))
	return hex.EncodeToString(h[:12]), nil
}
func (probeCtx) Compile(lang, text string) ([]*obj.Object, error) {
	if lang == "c" {
		return minic.Compile(text, minic.Options{Unit: "source"})
	}
	o, err := asm.Assemble("source.s", text)
	return []*obj.Object{o}, err
}
func (probeCtx) Specialize(kind string, _ []string, _ *mgraph.Value) (*mgraph.Value, error) {
	return nil, fmt.Errorf("probe context has no specializer %q", kind)
}

// compileUnits compiles source units in order into one module per unit.
func compileUnits(order []string, units map[string]string) ([]*jigsaw.Module, [][]*obj.Object, error) {
	var mods []*jigsaw.Module
	var objs [][]*obj.Object
	for _, name := range order {
		o, err := minic.Compile(units[name], minic.Options{Unit: name})
		if err != nil {
			return nil, nil, err
		}
		m, err := jigsaw.NewModule(o...)
		if err != nil {
			return nil, nil, err
		}
		mods = append(mods, m)
		objs = append(objs, o)
	}
	return mods, objs, nil
}

// directProbes runs every direct layer probe.  storeDir is a store
// directory filled by restart-warm's set-up (the standard workloads plus
// fillPrograms generated programs), closed.
func directProbes(ref *reference, seed int64, storeDir string) (*prober, error) {
	p := &prober{out: map[string]float64{}, reps: map[string]int{}}
	cg := workload.DefaultCodegen()
	libcBP := workload.LibcBlueprint()
	libcUnits, libcOrder := workload.LibcUnits(), workload.LibcUnitOrder()
	cgUnits, cgOrder := workload.CodegenUnits(cg), workload.CodegenUnitOrder(cg)

	// --- blueprint, mgraph, minic, asm: the toolchain on libc and codegen.
	p.time("blueprint.parse_us.libc", nil, func() error { _, err := blueprint.ParseAll(libcBP); return err })
	exprs, err := blueprint.ParseAll(libcBP)
	if err != nil {
		return nil, err
	}
	merge := exprs[len(exprs)-1] // after the constraint-list
	p.time("mgraph.build_us.libc", nil, func() error { _, err := mgraph.Build(merge); return err })
	libcRoot, err := mgraph.Build(merge)
	if err != nil {
		return nil, err
	}
	p.time("mgraph.eval_ms.libc", nil, func() error { _, err := libcRoot.Eval(probeCtx{}); return err })
	p.time("minic.compile_ms.libc", nil, func() error { _, _, err := compileUnits(libcOrder, libcUnits); return err })
	p.time("minic.compile_ms.codegen", nil, func() error { _, _, err := compileUnits(cgOrder, cgUnits); return err })
	p.allocs("minic.allocs.codegen", 2, func() error { _, _, err := compileUnits(cgOrder, cgUnits); return err })
	gen := genProgram(seed, 0)
	p.time("minic.compile_us.gen", nil, func() error {
		_, err := minic.Compile(gen.source, minic.Options{Unit: "source"})
		return err
	})
	p.time("asm.assemble_us.crt0", nil, func() error { _, err := asm.Assemble("crt0.s", workload.Crt0); return err })

	// --- jigsaw, link, obj: codegen's 33 units plus crt0, and libc.
	crt0, err := asm.Assemble("crt0.s", workload.Crt0)
	if err != nil {
		return nil, err
	}
	crt0Mod, err := jigsaw.NewModule(crt0)
	if err != nil {
		return nil, err
	}
	cgMods, cgObjs, err := compileUnits(cgOrder, cgUnits)
	if err != nil {
		return nil, err
	}
	cgMods = append([]*jigsaw.Module{crt0Mod}, cgMods...)
	libcMods, _, err := compileUnits(libcOrder, libcUnits)
	if err != nil {
		return nil, err
	}
	p.time("jigsaw.merge_us.codegen", nil, func() error { _, err := jigsaw.Merge(cgMods...); return err })
	cgMod, err := jigsaw.Merge(cgMods...)
	if err != nil {
		return nil, err
	}
	libcMod, err := jigsaw.Merge(libcMods...)
	if err != nil {
		return nil, err
	}
	p.time("link.measure_us.codegen", nil, func() error { link.Measure(cgMod); return nil })
	// codegen's library references stay unresolved here: the probe times
	// the link passes over the program's own fragments.
	cgOpts := link.Options{Name: "codegen", TextBase: 0x10_0000, DataBase: 0x4000_0000, Entry: "_start", AllowUndefined: true}
	libcOpts := link.Options{Name: "libc", TextBase: 0x100_0000, DataBase: 0x4100_0000}
	p.time("link.link_ms.codegen", nil, func() error { _, err := link.Link(cgMod, cgOpts); return err })
	p.time("link.link_ms.libc", nil, func() error { _, err := link.Link(libcMod, libcOpts); return err })
	if p.err != nil {
		return nil, p.err
	}
	cgRes, err := link.Link(cgMod, cgOpts)
	if err != nil {
		return nil, err
	}
	p.out["link.relocs.codegen"] = float64(cgRes.NumRelocs)
	libcRes, err := link.Link(libcMod, libcOpts)
	if err != nil {
		return nil, err
	}
	p.time("link.rebase_us.libc", nil, func() error {
		_, err := link.Rebase(libcRes, 0x300_0000, 0x4300_0000)
		return err
	})
	unit := cgObjs[0] // cg00: 30 function objects plus its externs
	var encoded [][]byte
	p.time("obj.encode_us", nil, func() error {
		encoded = encoded[:0]
		for _, o := range unit {
			b, err := obj.Encode(o)
			if err != nil {
				return err
			}
			encoded = append(encoded, b)
		}
		return nil
	})
	p.time("obj.decode_us", nil, func() error {
		for _, b := range encoded {
			if _, err := obj.Decode(b); err != nil {
				return err
			}
		}
		return nil
	})

	// --- constraint: one placement among 300 placed regions.
	solver := constraint.NewSolver()
	for i := 0; i < 300; i++ {
		if _, err := solver.Place(constraint.Request{Key: fmt.Sprintf("k%d", i), TextSize: 0x3000, DataSize: 0x2000}); err != nil {
			return nil, err
		}
	}
	p.time("constraint.place_us.at300", func() error { solver.Release("probe"); return nil }, func() error {
		_, err := solver.Place(constraint.Request{Key: "probe", TextSize: 0x3000, DataSize: 0x2000})
		return err
	})

	// --- daemon and server, on a storeless system with everything built.
	p.time("daemon.install_ms", nil, func() error {
		sys, err := omos.NewSystem()
		if err != nil {
			return err
		}
		return daemon.InstallWorkloads(sys, cg)
	})
	if err := probeServer(p, ref, seed); err != nil {
		return nil, err
	}
	if err := probeStore(p, storeDir); err != nil {
		return nil, err
	}
	return p, p.err
}

// probeServer times the server's own entry points.
func probeServer(p *prober, ref *reference, seed int64) error {
	sys, err := omos.NewSystem()
	if err != nil {
		return err
	}
	if err := daemon.InstallWorkloads(sys, workload.DefaultCodegen()); err != nil {
		return err
	}
	srv := sys.Srv
	for _, name := range []string{"/bin/ls", "/bin/codegen"} {
		if _, err := sys.Run(name, []string{"/data/one"}); err != nil {
			return fmt.Errorf("probe system first run of %s: %w", name, err)
		}
	}
	inst := func(name string) func() error {
		return func() error { _, err := srv.Instantiate(name, nil); return err }
	}
	p.time("server.inst_warm_us.ls", nil, inst("/bin/ls"))
	p.allocs("server.inst_warm_allocs.ls", 10, inst("/bin/ls"))
	p.time("server.inst_warm_ms.codegen", nil, inst("/bin/codegen"))
	p.allocs("server.inst_warm_allocs.codegen", 2, inst("/bin/codegen"))
	proc := sys.Kern.Spawn()
	if _, err := srv.Instantiate("/bin/codegen", proc); err != nil {
		return err
	}
	p.out["server.inst_warm_sim_cycles.codegen"] = float64(proc.Clock.Elapsed())
	proc.Release()
	p.time("mgraph.eval_ms.codegen", nil, func() error { _, _, err := srv.EvalProgram("/bin/codegen"); return err })
	_, meta, err := srv.EvalProgram("/bin/codegen")
	if err != nil {
		return err
	}
	p.time("mgraph.hash_us.codegen", nil, func() error { _, err := meta.Root.Hash(probeCtx{}); return err })

	lsInst, err := srv.Instantiate("/bin/ls", nil)
	if err != nil {
		return err
	}
	mapProc := sys.Kern.Spawn()
	p.time("server.map_us", func() error { mapProc.Release(); mapProc = sys.Kern.Spawn(); return nil },
		func() error { return srv.MapInstance(mapProc, lsInst) })
	mapProc.Release()
	p.time("osim.spawn_release_us", nil, func() error { sys.Kern.Spawn().Release(); return nil })

	// A cold codegen: its image and every library image evicted; what
	// the first Run of a set-up pays (binding tables stay warm).
	p.time("server.inst_cold_ms.codegen", func() error {
		for _, lib := range ref.listLib {
			srv.Evict(lib)
		}
		srv.Evict("/bin/codegen")
		return nil
	}, inst("/bin/codegen"))
	if _, err := srv.Instantiate("/bin/ls", nil); err != nil { // rebuilt for the generated programs' libc
		return err
	}

	// One generated program's life, a step per metric: define, cold
	// instantiate, evict+remove — build-cold's op without transport.
	n := 0
	var g genProg
	next := func() error { n++; g = genProgram(seed, 1<<20+n); return nil }
	p.time("server.define_us", func() error {
		if g.path != "" {
			srv.Remove(g.path)
		}
		return next()
	}, func() error { return srv.Define(g.path, g.blueprint) })
	p.time("server.inst_cold_ms.gen", func() error {
		next()
		return srv.Define(g.path, g.blueprint)
	}, func() error { _, err := srv.Instantiate(g.path, nil); return err })
	p.time("server.evict_remove_us", func() error {
		next()
		if err := srv.Define(g.path, g.blueprint); err != nil {
			return err
		}
		_, err := srv.Instantiate(g.path, nil)
		return err
	}, func() error {
		srv.Evict(g.path)
		return srv.Remove(g.path)
	})
	return p.err
}

// probeStore times the persistent tier on a filled store directory.
func probeStore(p *prober, dir string) error {
	p.time("store.open_ms.n256", nil, func() error {
		_, err := store.Open(dir, 0)
		return err
	})
	var attached *omos.System
	var st *store.Store
	p.time("server.attach_store_ms", func() (err error) {
		if attached != nil {
			attached.Srv.CloseStore()
		}
		if attached, err = omos.NewSystem(); err != nil {
			return err
		}
		st, err = store.Open(dir, 0)
		return err
	}, func() error {
		if n := attached.Srv.AttachStore(st); n < fillPrograms {
			return fmt.Errorf("attach warm-loaded %d images, want at least %d", n, fillPrograms)
		}
		return nil
	})
	if p.err != nil {
		return p.err
	}
	// The libc image's record: the largest the workloads write.
	var blob []byte
	var key string
	for _, k := range st.KeysLRU() {
		b, ok, err := st.Get(k)
		if err != nil {
			return err
		}
		if ok && len(b) > len(blob) {
			blob, key = b, k
		}
	}
	rec, err := store.Decode(blob)
	if err != nil {
		return fmt.Errorf("decoding the largest record: %w", err)
	}
	p.out["store.record_bytes"] = float64(len(blob))
	p.time("store.decode_us", nil, func() error { _, err := store.Decode(blob); return err })
	p.time("store.encode_us", nil, func() error { _, err := store.Encode(rec); return err })
	p.time("store.get_us", nil, func() error { _, _, err := st.Get(key); return err })
	p.time("store.flush_ms", nil, st.Flush)
	scratch, err := os.MkdirTemp("", "omos-bench-put-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(scratch)
	put, err := store.Open(scratch, 0)
	if err != nil {
		return err
	}
	p.time("store.put_us", nil, func() error { return put.Put(key, blob) })
	if err := attached.Srv.CloseStore(); err != nil {
		return err
	}
	return p.err
}
