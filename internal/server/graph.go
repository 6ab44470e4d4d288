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
// node outcomes and checkpoints, then the runs themselves.
func (s *Server) GraphReport() string {
	n, c := &s.stats.nodes, &s.stats
	return s.graph.Render(fmt.Sprintf(
		"nodes: built=%d rebased=%d cached=%d resumed=%d failed=%d\ncheckpoints: ok=%d failed=%d bytes=%d\n",
		n[buildgraph.OutcomeBuilt].Load(), n[buildgraph.OutcomeRebased].Load(), n[buildgraph.OutcomeCached].Load(),
		n[buildgraph.OutcomeResumed].Load(), n[buildgraph.OutcomeFailed].Load(),
		c.nodesCheckpointed.Load(), c.checkpointsFailed.Load(), c.checkpointBytes.Load()))
}

// inNode is the one node lifecycle: it runs produce as one build-graph
// node — the root of a new run when root is set, else a child of the
// context's current node (nothing is recorded outside a run) — with
// the node in produce's context and charger, so deeper stages hang
// children under it and tee their cycles into it.  A panic anywhere in
// produce (evaluation, specialization, injected faults) fails this
// node — and therefore the request — but never the goroutine it runs
// on; it is counted in Recovered and returned as the node's error.
// The node then finishes with the outcome the producing stage set
// (build), and the outcome is counted.
func (s *Server) inNode(ctx context.Context, name string, kind buildgraph.Kind, root bool, c charger,
	produce func(context.Context, charger) (*Instance, error)) (inst *Instance, err error) {
	var node *buildgraph.Node
	if root {
		node = s.graph.Begin(name, kind)
	} else {
		node = buildgraph.NodeFrom(ctx).Child(name, kind)
	}
	defer func() {
		if r := recover(); r != nil {
			s.stats.recovered.Add(1)
			inst = nil
			err = fmt.Errorf("server: building %s: recovered panic: %v", name, r)
		}
		if node != nil {
			s.stats.nodes[node.Finish(err)].Add(1)
		}
	}()
	if node != nil {
		ctx = buildgraph.WithNode(ctx, node)
		c = withNode(c, node)
	}
	return produce(ctx, c)
}
