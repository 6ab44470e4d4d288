package main

import (
	"net"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"omos/internal/daemon"
	"omos/internal/ipc"
)

// span is one timed call into a layer, recorded by the benchmark's own
// wrappers (no layer is instrumented).  Times are nanoseconds since the
// tracer was made.  parent and req are span ids; -1 is "none".  The
// server side cannot see which client call caused it (the protocol
// carries no request id), so a daemon.* span's parent is filled in by
// linkSpans after the run.
type span struct {
	Name   string `json:"name"`
	Sig    string `json:"sig,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	Req    int32  `json:"req"`
	// Client is the index of the client goroutine that recorded the
	// span, -1 for a span recorded on the server side.
	Client int8 `json:"client"`
}

// tracer collects spans in memory.  It is switched on and off while a
// traced window runs, so the same window holds traced and untraced ops
// side by side and the cost of tracing is measured against the same
// minutes of host noise.
type tracer struct {
	t0    time.Time
	on    atomic.Bool
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) enabled() bool { return t != nil && t.on.Load() }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// add records a finished span and returns its id.
func (t *tracer) add(s span) int32 {
	t.mu.Lock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return id
}

// setParent points already-recorded child spans at their parent, which
// finishes (and so gets its id) after them.
func (t *tracer) setParent(parent int32, children ...int32) {
	t.mu.Lock()
	for _, c := range children {
		t.spans[c].Parent = parent
	}
	t.mu.Unlock()
}

// take returns the spans recorded so far and starts afresh.
func (t *tracer) take() []span {
	t.mu.Lock()
	s := t.spans
	t.spans = nil
	t.mu.Unlock()
	return s
}

// conn is one client goroutine's connection.  Its calls are recorded as
// ipc.call spans under the client's index while tracing is on.  Two
// conns may share one ipc.Client (wire-ctl's muxed connection).
type conn struct {
	*ipc.Client
	tr *tracer
	id int8
}

// call is Client.Call under an ipc.call span.  sig names the request so
// that linkSpans can pair the span with the daemon span it caused.
func (c *conn) call(req *ipc.Request, sig string) (*ipc.Response, error) {
	t := c.tr
	if !t.enabled() {
		return c.Call(req)
	}
	start := t.now()
	resp, err := c.Call(req)
	t.add(span{Name: "ipc.call", Sig: sig, Start: start, End: t.now(), Parent: -1, Req: -1, Client: c.id})
	return resp, err
}

// timed runs f under a client-side span of client 0 (the restart-warm
// steps, which only ever have one client).
func (t *tracer) timed(name string, f func() error) error {
	if !t.enabled() {
		return f()
	}
	start := t.now()
	err := f()
	t.add(span{Name: name, Start: start, End: t.now(), Parent: -1, Req: -1})
	return err
}

// serverSpan is a span recorded behind the transport.
func serverSpan(name, sig string, start, end int64) span {
	return span{Name: name, Sig: sig, Start: start, End: end, Parent: -1, Req: -1, Client: -1}
}

// runSig is the signature shared by the client and server spans of one
// Run request.
func runSig(name string, args []string, bootstrap bool) string {
	s := name + " " + strings.Join(args, " ")
	if bootstrap {
		s += " (boot)"
	}
	return s
}

// tracedBackend decorates the daemon's backend: every operation the
// workloads issue is recorded as daemon.<op>, and Run performs
// System.Run's two steps itself so that the loader and the simulated
// machine appear as child spans.  Everything else passes through the
// embedded *daemon.Backend, so the decorator satisfies every optional
// ipc backend interface the daemon does.
type tracedBackend struct {
	*daemon.Backend
	tr *tracer
}

func (b *tracedBackend) Run(name string, args []string, bootstrap bool) (ipc.RunOutcome, error) {
	if !b.tr.enabled() {
		return b.Backend.Run(name, args, bootstrap)
	}
	t := b.tr
	sys := b.Sys
	start := t.now()
	launch := sys.RT.ExecIntegrated
	if bootstrap {
		launch = sys.RT.ExecBootstrap
	}
	p, err := launch(name, args)
	mid := t.now()
	if err != nil {
		return ipc.RunOutcome{}, err
	}
	code, err := sys.Kern.RunToExit(p)
	end := t.now()
	if err != nil {
		return ipc.RunOutcome{}, err
	}
	out := ipc.RunOutcome{ExitCode: code, Output: p.Output.String(),
		User: p.Clock.User, Sys: p.Clock.Sys, Server: p.Clock.Server, Wait: p.Clock.Wait}
	p.Release()
	exec := t.add(serverSpan("loader.exec", "", start, mid))
	run := t.add(serverSpan("osim.run", "", mid, end))
	id := t.add(serverSpan("daemon.run", runSig(name, args, bootstrap), start, t.now()))
	t.setParent(id, exec, run)
	return out, nil
}

func (b *tracedBackend) wrap(name, sig string, f func()) {
	if !b.tr.enabled() {
		f()
		return
	}
	start := b.tr.now()
	f()
	b.tr.add(serverSpan(name, sig, start, b.tr.now()))
}

func (b *tracedBackend) List(prefix string) (out []string) {
	b.wrap("daemon.list", "list "+prefix, func() { out = b.Backend.List(prefix) })
	return out
}

func (b *tracedBackend) Stats() (out string) {
	b.wrap("daemon.stats", "stats", func() { out = b.Backend.Stats() })
	return out
}

func (b *tracedBackend) Health() (out ipc.HealthInfo) {
	b.wrap("daemon.health", "health", func() { out = b.Backend.Health() })
	return out
}

func (b *tracedBackend) DefineAllow(path, bp string, allow bool) (err error) {
	b.wrap("daemon.define", "define "+path, func() { err = b.Backend.DefineAllow(path, bp, allow) })
	return err
}

func (b *tracedBackend) RemoveAllow(path string, allow bool) (err error) {
	b.wrap("daemon.remove", "remove "+path, func() { err = b.Backend.RemoveAllow(path, allow) })
	return err
}

// linkSpans pairs each ipc.call span with the daemon span it caused: same
// signature, and the daemon span lies inside the call's interval.  Two
// clients may have the same request in flight at once; a daemon span
// then goes to the containing call that ends first, which can swap two
// requests' server spans but leaves every total and every per-class
// mean exact.  A span whose partner was not recorded (tracing was
// switched while the request was in flight) stays unpaired.  Every span
// under a paired call gets the call's id as its request id.
func linkSpans(spans []span) {
	var order []int32
	for i := range spans {
		if spans[i].Name == "ipc.call" || (strings.HasPrefix(spans[i].Name, "daemon.") && spans[i].Sig != "") {
			order = append(order, int32(i))
		}
	}
	sort.Slice(order, func(a, b int) bool {
		x, y := &spans[order[a]], &spans[order[b]]
		if x.Start != y.Start {
			return x.Start < y.Start
		}
		return x.Name == "ipc.call" && y.Name != "ipc.call"
	})
	inflight := map[string][]int32{} // calls awaiting their daemon span, by signature
	for _, i := range order {
		s := &spans[i]
		if s.Name == "ipc.call" {
			s.Req = i
			inflight[s.Sig] = append(inflight[s.Sig], i)
			continue
		}
		live := inflight[s.Sig][:0]
		best := int32(-1)
		for _, c := range inflight[s.Sig] {
			if spans[c].End < s.Start {
				continue // finished before this span began
			}
			live = append(live, c)
			if spans[c].End >= s.End && (best < 0 || spans[c].End < spans[best].End) {
				best = c
			}
		}
		if best >= 0 {
			s.Parent, s.Req = best, best
			for k, c := range live {
				if c == best {
					live = append(live[:k], live[k+1:]...)
					break
				}
			}
		}
		inflight[s.Sig] = live
	}
	for i := range spans {
		if p := spans[i].Parent; p >= 0 && spans[i].Req < 0 {
			spans[i].Req = spans[p].Req
		}
	}
}

// selfTimes returns, per span, its duration minus the part its direct
// children cover (children of one span never overlap here: each layer
// is called serially inside its caller).
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i := range spans {
		self[i] += spans[i].End - spans[i].Start
		if p := spans[i].Parent; p >= 0 {
			self[p] -= spans[i].End - spans[i].Start
		}
	}
	return self
}

// countingConn counts the bytes crossing a client connection, for
// ipc.wire_bytes_call.
type countingConn struct {
	net.Conn
	rx, tx atomic.Int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.rx.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.tx.Add(int64(n))
	return n, err
}
