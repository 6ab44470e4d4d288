package server

import (
	"context"
	"fmt"

	"omos/internal/buildgraph"
)

// This file is the server side of the build-graph recording
// (internal/buildgraph): every public instantiation opens a run, each
// library dependency branch becomes a node (parallel.go), and node
// results are checkpointed into the persistent store the moment they
// complete (persist.go), so a daemon killed mid-build resumes at the
// surviving nodes after a warm restart.

// GraphReport renders the build graph for `omos graph`: run counts,
// then the runs themselves.  The node and checkpoint counters are the
// `graph:` line of `omos stats` (Stats.Format).
func (s *Server) GraphReport() string { return s.graph.Render() }

// inNode is the one node lifecycle and the only caller of image: it
// finds or builds t's image as one build-graph node — the root of a
// new run when root is set, else a child of the context's current node
// (nothing is recorded outside a run) — with the node in the context
// and charger, so deeper stages hang children under it and tee their
// cycles into it.  A panic anywhere under it (evaluation,
// specialization, injected faults), including one the build executor
// re-raised from a helper goroutine, fails this node — and therefore
// the request — but never the goroutine it runs on; it is counted in
// Recovered and returned as the node's error.  The node then finishes
// with the outcome the producing stage set (build), and the outcome is
// counted.
func (s *Server) inNode(ctx context.Context, t target, root bool, c charger) (inst *Instance, err error) {
	var node *buildgraph.Node
	if root {
		// A root holds one processor of the build executor for its
		// lifetime, so other requests' fan-outs do not take it.
		s.exec.Enter()
		defer s.exec.Leave()
		node = s.graph.Begin(t.name, t.kind())
	} else {
		node = buildgraph.NodeFrom(ctx).Child(t.name, t.kind())
	}
	defer func() {
		if r := recover(); r != nil {
			s.stats.recovered.Add(1)
			inst = nil
			err = fmt.Errorf("server: building %s: recovered panic: %v", t.name, r)
		}
		if node != nil {
			s.stats.nodes[node.Finish(err)].Add(1)
		}
	}()
	if node != nil {
		ctx = buildgraph.WithNode(ctx, node)
		c = withNode(c, node)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// Scheduling a dependency's node has a small fixed cost (queue +
	// join bookkeeping), charged to the requester like the lookup is.
	if !root && c != nil {
		c.ChargeServer(s.kern.Cost.ServerNodeSchedule)
	}
	return s.image(ctx, t, c)
}
