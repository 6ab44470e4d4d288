package main

import (
	"fmt"
	"reflect"
	"strconv"
	"strings"

	"omos/internal/ipc"
	"omos/internal/server"
)

// opFunc performs one operation of the given class and checks its reply
// against the reference.  sim is the simulated elapsed cycles of the
// op's Run, 0 if it made none.
type opFunc func(class int) (sim uint64, err error)

// live is a workload set up on a store directory and ready to be driven.
type live interface {
	// client returns the op function of client i (0 <= i < clients).
	client(i int) opFunc
	// settle puts the workload in the state heap_live_mb is sampled in
	// — the daemon, its image cache and its idle clients alive — and
	// returns what undoes it before the clients run.
	settle() (release func() error, err error)
	// probeSim makes one `ls /data/one` Run and returns its simulated
	// cycles, for a window that made no Run.
	probeSim() (uint64, error)
	// stats is the server's cumulative counters, for per-window deltas.
	stats() server.Stats
	close() error
}

// env is what a workload's set-up needs from the run.
type env struct {
	ref  *reference
	seed int64
	tr   *tracer // nil in an untraced run
}

type spec struct {
	name, why string
	clients   int
	classes   []class
	// warmBlocks is how many blocks each client runs before the window.
	warmBlocks int
	// setupReps is how many times the set-up script is repeated for
	// setup_s (its median is reported).
	setupReps int
	// setUp runs the whole set-up script once on an empty directory.
	setUp func(e *env, dir string) (live, error)
}

// ringDepth is how many generated programs build-cold keeps defined and
// cached before it evicts and removes the oldest; it bounds the heap
// and the solver's regions, so the workload is stationary.
const ringDepth = 2 * genShapes

// fillPrograms is how many generated programs restart-warm's set-up
// checkpoints into the store next to the standard workloads.
const fillPrograms = 256

var suite = []*spec{
	{
		name:       "exec-warm",
		why:        "Table 1: program invocation against a warm image cache by two concurrent clients; the server hit path does the work",
		clients:    2,
		classes:    []class{{"ls", 10}, {"ls-boot", 2}, {"ls-laF", 4}, {"codegen", 4}},
		warmBlocks: 1, setupReps: 9,
		setUp: daemonSetUp(2, false, execWarmFirstRuns, (*daemonLive).execOp),
	},
	{
		name:       "build-cold",
		why:        "write side of the cache: define, build, checkpoint, run, evict and remove a never-seen program per op; every image is a miss",
		clients:    1,
		classes:    shapeClasses(),
		warmBlocks: ringDepth / genShapes, setupReps: 9,
		setUp: daemonSetUp(1, false, buildColdFirstRuns, (*daemonLive).buildOp),
	},
	{
		name:       "restart-warm",
		why:        "restart to first answer on a filled store with zero relinks: store open/decode and AttachStore dominate; a memo in memory must not move it",
		clients:    1,
		classes:    []class{{"restart", 1}},
		warmBlocks: 3, setupReps: 2,
		setUp: setUpRestart,
	},
	{
		name:       "wire-ctl",
		why:        "transport and dispatch only: list/stats/health from two goroutines muxed on one connection; the build path is never entered",
		clients:    2,
		classes:    []class{{"list", 1}, {"stats", 1}, {"health", 1}},
		warmBlocks: 100, setupReps: 9,
		setUp: daemonSetUp(2, true, wireCtlFirstRuns, (*daemonLive).ctlOp),
	},
}

func findWorkload(name string) *spec {
	for _, w := range suite {
		if w.name == name {
			return w
		}
	}
	return nil
}

func shapeClasses() []class {
	cs := make([]class, genShapes)
	for i := range cs {
		cs[i] = class{fmt.Sprintf("shape%02d", i), 1}
	}
	return cs
}

// daemonOp is one workload's operation against a live rig.
type daemonOp func(d *daemonLive, c *conn, class int) (uint64, error)

// daemonLive is a workload driven against one live rig.
type daemonLive struct {
	e     *env
	r     *rig
	op    daemonOp
	conns []*conn // one per client goroutine; wire-ctl's share one ipc.Client
	// build-cold: programs generated so far per shape, and the paths
	// still defined, oldest first.
	nextGen [genShapes]int
	ring    []string
	// wire-ctl: ImagesBuilt after set-up; no op may change it.
	images uint64
}

func daemonSetUp(clients int, shareConn bool, firstRuns func(*daemonLive) error, op daemonOp) func(*env, string) (live, error) {
	return func(e *env, dir string) (live, error) {
		return setUpDaemon(e, dir, clients, shareConn, firstRuns, op)
	}
}

// setUpDaemon is the set-up script of the workloads that drive a live
// daemon: boot, install, serve, connect every client (completing its
// protocol handshake), then the first Run of every program the workload
// uses, so no window pays a first build.
func setUpDaemon(e *env, dir string, clients int, shareConn bool, firstRuns func(*daemonLive) error, op daemonOp) (*daemonLive, error) {
	r, err := bootRig(dir, e.tr)
	if err != nil {
		return nil, err
	}
	d := &daemonLive{e: e, r: r, op: op}
	for i := 0; i < clients; i++ {
		if shareConn && i > 0 {
			d.conns = append(d.conns, &conn{Client: d.conns[0].Client, tr: e.tr, id: int8(i)})
			continue
		}
		c, err := ipc.Dial(r.addr)
		if err != nil {
			d.close()
			return nil, fmt.Errorf("connect: %w", err)
		}
		d.conns = append(d.conns, &conn{Client: c, tr: e.tr, id: int8(i)})
		if _, err := c.Call(&ipc.Request{Op: ipc.OpPing}); err != nil {
			d.close()
			return nil, fmt.Errorf("connect: %w", err)
		}
	}
	if err := firstRuns(d); err != nil {
		d.close()
		return nil, err
	}
	return d, nil
}

// settle: a daemon workload is already in that state between ops.
func (d *daemonLive) settle() (func() error, error) { return func() error { return nil }, nil }
func (d *daemonLive) stats() server.Stats           { return d.r.sys.Srv.Stats() }

func (d *daemonLive) close() error {
	for _, c := range d.conns {
		c.Close() // closing a shared connection twice is harmless
	}
	return d.r.close()
}

func (d *daemonLive) probeSim() (uint64, error) { return d.execOp(d.conns[0], execLs) }

func (d *daemonLive) client(i int) opFunc {
	c := d.conns[i]
	return func(class int) (uint64, error) { return d.op(d, c, class) }
}

// exec-warm classes, in the order of the workload's class table.
const (
	execLs = iota
	execLsBoot
	execLsLaF
	execCodegen
)

func (d *daemonLive) execOp(c *conn, class int) (uint64, error) {
	var req *ipc.Request
	var sig, wantOut string
	var wantExit uint64
	ref := d.e.ref
	switch class {
	case execLs:
		req, sig = runReq("/bin/ls", false, "/data/one")
		wantOut = ref.lsOne
	case execLsBoot:
		req, sig = runReq("/bin/ls", true, "/data/one")
		wantOut = ref.lsOne
	case execLsLaF:
		req, sig = runReq("/bin/ls", false, "-laF", "/data/many")
		wantOut = ref.lsMany
	case execCodegen:
		req, sig = runReq("/bin/codegen", false)
		wantExit = ref.cgExit
	}
	resp, err := c.call(req, sig)
	if err != nil {
		return 0, err
	}
	if err := checkRun(resp, wantExit, wantOut); err != nil {
		return 0, fmt.Errorf("%s: %w", sig, err)
	}
	if class == execCodegen {
		// Both clients write the same value, so a concurrent rewrite
		// cannot make a right answer look wrong.
		out, _, err := d.r.sys.Kern.FS.ReadFile("/data/cg/out")
		if err != nil || string(out) != ref.cgOut {
			return 0, fmt.Errorf("codegen: /data/cg/out = %q (%v), baseline world wrote %q", out, err, ref.cgOut)
		}
	}
	return simCycles(resp), nil
}

func execWarmFirstRuns(d *daemonLive) error {
	for class := execLs; class <= execCodegen; class++ {
		if _, err := d.execOp(d.conns[0], class); err != nil {
			return fmt.Errorf("first run: %w", err)
		}
	}
	return nil
}

// buildOp defines, runs and (ringDepth ops later) evicts and removes
// one never-seen generated program.  class is the program's shape.
func (d *daemonLive) buildOp(c *conn, class int) (uint64, error) {
	n := d.nextGen[class]*genShapes + class
	d.nextGen[class]++
	g := genProgram(d.e.seed, n)
	resp, err := c.call(&ipc.Request{Op: ipc.OpDefine, Path: g.path, Text: g.blueprint}, "define "+g.path)
	if err != nil {
		return 0, fmt.Errorf("define %s: %w", g.path, err)
	}
	req, sig := runReq(g.path, false)
	if resp, err = c.call(req, sig); err != nil {
		return 0, fmt.Errorf("run %s: %w", g.path, err)
	}
	if err := checkRun(resp, g.wantExit, g.wantOut); err != nil {
		return 0, fmt.Errorf("%s: %w (the generator computed the want)", g.path, err)
	}
	d.ring = append(d.ring, g.path)
	if len(d.ring) > ringDepth {
		old := d.ring[0]
		d.ring = d.ring[1:]
		// The protocol has no evict operation; omosd's operator would
		// use the server directly, as here.
		d.r.sys.Srv.Evict(old)
		if _, err := c.call(&ipc.Request{Op: ipc.OpRemove, Path: old}, "remove "+old); err != nil {
			return 0, fmt.Errorf("remove %s: %w", old, err)
		}
	}
	return simCycles(resp), nil
}

// buildColdFirstRuns builds /lib/libc through one throwaway program, so
// the window's programs all take the library warm path.
func buildColdFirstRuns(d *daemonLive) error {
	g := genProgram(d.e.seed, 1<<30) // shape 0, an index no window reaches
	c := d.conns[0]
	if _, err := c.Call(&ipc.Request{Op: ipc.OpDefine, Path: g.path, Text: g.blueprint}); err != nil {
		return fmt.Errorf("first define: %w", err)
	}
	req, _ := runReq(g.path, false)
	resp, err := c.Call(req)
	if err == nil {
		err = checkRun(resp, g.wantExit, g.wantOut)
	}
	if err != nil {
		return fmt.Errorf("first run: %w", err)
	}
	d.r.sys.Srv.Evict(g.path)
	_, err = c.Call(&ipc.Request{Op: ipc.OpRemove, Path: g.path})
	return err
}

// wire-ctl classes.
const (
	ctlList = iota
	ctlStats
	ctlHealth
)

func (d *daemonLive) ctlOp(c *conn, class int) (uint64, error) {
	return 0, d.ctlCheck(c, class)
}

func (d *daemonLive) ctlCheck(c *conn, class int) error {
	switch class {
	case ctlList:
		resp, err := c.call(&ipc.Request{Op: ipc.OpList, Path: "/lib"}, "list /lib")
		if err != nil {
			return err
		}
		if !reflect.DeepEqual(resp.Paths, d.e.ref.listLib) {
			return fmt.Errorf("list /lib = %v, want %v", resp.Paths, d.e.ref.listLib)
		}
	case ctlStats:
		resp, err := c.call(&ipc.Request{Op: ipc.OpStats}, "stats")
		if err != nil {
			return err
		}
		// images= must equal what the server itself counted after
		// set-up, read directly rather than through the daemon's text.
		got, ok := statField(resp.Text, "cache:", "images")
		if !ok || got != d.images {
			return fmt.Errorf("stats: images=%d (found=%v), server counted %d", got, ok, d.images)
		}
	case ctlHealth:
		resp, err := c.call(&ipc.Request{Op: ipc.OpHealth}, "health")
		if err != nil {
			return err
		}
		h := resp.Health
		if h == nil || h.Degraded || h.Draining || h.InflightBuilds != 0 || h.WarmLoaded != 0 {
			return fmt.Errorf("health: %+v, want an idle healthy daemon booted cold", h)
		}
	}
	return nil
}

// statField extracts key=N from the stats line that starts with prefix.
func statField(text, prefix, key string) (uint64, bool) {
	for _, line := range strings.Split(text, "\n") {
		if !strings.HasPrefix(line, prefix) {
			continue
		}
		for _, f := range strings.Fields(line) {
			if v, ok := strings.CutPrefix(f, key+"="); ok {
				n, err := strconv.ParseUint(v, 10, 64)
				return n, err == nil
			}
		}
	}
	return 0, false
}

func wireCtlFirstRuns(d *daemonLive) error {
	if _, err := d.probeSim(); err != nil {
		return fmt.Errorf("first run: %w", err)
	}
	d.images = d.r.sys.Srv.Stats().ImagesBuilt
	for class := ctlList; class <= ctlHealth; class++ {
		if err := d.ctlCheck(d.conns[0], class); err != nil {
			return fmt.Errorf("first call: %w", err)
		}
	}
	return nil
}

// restartLive is restart-warm: a filled store directory, restarted once
// per op.
type restartLive struct {
	e   *env
	dir string
	sum server.Stats // counters of every restarted system so far
}

// setUpRestart boots a daemon on the empty directory, runs ls, fills the
// store with fillPrograms generated programs, and shuts down cleanly,
// leaving the directory a restart warm-loads from.
func setUpRestart(e *env, dir string) (live, error) {
	l, err := setUpDaemon(e, dir, 1, false, func(d *daemonLive) error {
		if _, err := d.probeSim(); err != nil {
			return fmt.Errorf("first run: %w", err)
		}
		for i := 0; i < fillPrograms; i++ {
			g := genProgram(e.seed, i)
			c := d.conns[0]
			if _, err := c.Call(&ipc.Request{Op: ipc.OpDefine, Path: g.path, Text: g.blueprint}); err != nil {
				return fmt.Errorf("fill define: %w", err)
			}
			req, _ := runReq(g.path, false)
			resp, err := c.Call(req)
			if err == nil {
				err = checkRun(resp, g.wantExit, g.wantOut)
			}
			if err != nil {
				return fmt.Errorf("fill %s: %w", g.path, err)
			}
		}
		return nil
	}, (*daemonLive).execOp)
	if err != nil {
		return nil, err
	}
	if err := l.close(); err != nil {
		return nil, fmt.Errorf("closing the filled store: %w", err)
	}
	return &restartLive{e: e, dir: dir}, nil
}

// restart boots a daemon on the filled store and gets its first answer.
func (l *restartLive) restart() (*rig, *conn, uint64, error) {
	tr := l.e.tr
	r, err := bootRig(l.dir, tr)
	if err != nil {
		return nil, nil, 0, err
	}
	c := &conn{tr: tr}
	err = tr.timed("ipc.dial", func() (err error) {
		c.Client, err = ipc.Dial(r.addr)
		return err
	})
	if err != nil {
		r.close()
		return nil, nil, 0, err
	}
	req, sig := runReq("/bin/ls", false, "/data/one")
	resp, err := c.call(req, sig)
	if err == nil {
		err = checkRun(resp, 0, l.e.ref.lsOne)
	}
	if st := r.sys.Srv.Stats(); err == nil && (st.ImagesBuilt != 0 || r.sys.WarmLoaded < fillPrograms) {
		err = fmt.Errorf("restart relinked: images built %d, warm-loaded %d of at least %d",
			st.ImagesBuilt, r.sys.WarmLoaded, fillPrograms)
	}
	if err != nil {
		c.Close()
		r.close()
		return nil, nil, 0, err
	}
	return r, c, simCycles(resp), nil
}

func (l *restartLive) op(int) (uint64, error) {
	r, c, sim, err := l.restart()
	if err != nil {
		return 0, err
	}
	addStats(&l.sum, r.sys.Srv.Stats())
	err = l.e.tr.timed("omos.close", func() error {
		c.Close()
		return r.close()
	})
	return sim, err
}

func (l *restartLive) client(int) opFunc         { return l.op }
func (l *restartLive) probeSim() (uint64, error) { return l.op(0) }
func (l *restartLive) stats() server.Stats       { return l.sum }

// settle restarts once and keeps that daemon and its client open.
func (l *restartLive) settle() (func() error, error) {
	r, c, _, err := l.restart()
	if err != nil {
		return nil, err
	}
	return func() error {
		c.Close()
		return r.close()
	}, nil
}

// close: between ops nothing is running on the directory.
func (l *restartLive) close() error { return nil }

// addStats accumulates the counters the per-layer table reads.
func addStats(sum *server.Stats, s server.Stats) {
	sum.CacheHits += s.CacheHits
	sum.CacheMisses += s.CacheMisses
	sum.ImagesBuilt += s.ImagesBuilt
	sum.Rebases += s.Rebases
	sum.SymbolSearches += s.SymbolSearches
	sum.BindingHits += s.BindingHits
	sum.StoreStores += s.StoreStores
	sum.StoreLoads += s.StoreLoads
	sum.CheckpointBytes += s.CheckpointBytes
}
