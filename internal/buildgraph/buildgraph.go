// Package buildgraph makes the server's instantiation pipeline an
// explicit, introspectable build DAG.
//
// One top-level instantiation is a Run; every library link (or
// rebase) it performs — including the root program image itself — is
// a Node.  Nodes are recorded as evaluation discovers them (m-graph
// evaluation reveals dependencies dynamically, so the graph grows
// during execution rather than being pre-planned), keyed by the same
// cache key and placement-independent content key the server uses,
// and checkpointed into the persistent store the moment they
// complete — independently of whether the enclosing run finishes.  A
// daemon killed mid-build and warm-restarted therefore re-runs only
// the nodes that had not checkpointed.
//
// Each node is recorded once, in its own fields: the stage that
// produced its image sets its outcome, and Finish closes it.  A run
// is retired to a bounded ring of recent runs when its root node
// finishes.  The Log keeps no counters; the server counts node
// outcomes beside its other counters.  Render formats the runs for the
// `omos graph` view.  Everything is nil-safe on the Node side:
// pipeline stages that run outside a recorded run (no node in the
// context) simply record nothing.
package buildgraph

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Kind classifies what a node links.
type Kind uint8

// Node kinds.
const (
	KindLibrary Kind = iota
	KindBranchTable
	KindProgram
)

var kindNames = map[Kind]string{
	KindLibrary:     "library",
	KindBranchTable: "branch-table",
	KindProgram:     "program",
}

// String returns the display name of the kind.
func (k Kind) String() string {
	if n, ok := kindNames[k]; ok {
		return n
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Outcome is how a node resolved.
type Outcome uint8

// Node outcomes.
const (
	// OutcomePending: the node has not finished.
	OutcomePending Outcome = iota
	// OutcomeBuilt: a full link ran for this node.
	OutcomeBuilt
	// OutcomeRebased: served by sliding a placement variant, local or
	// a mesh peer's.
	OutcomeRebased
	// OutcomeCached: no stage ran for this node — the image was in the
	// cache, or a concurrent leader's build produced it.
	OutcomeCached
	// OutcomeResumed: woken, inside this node's own build flight, from
	// the record a previous session checkpointed.  A record wakes once,
	// so each counts as resumed at most once.
	OutcomeResumed
	// OutcomeFailed: the node's build returned an error.
	OutcomeFailed
)

var outcomeNames = map[Outcome]string{
	OutcomePending: "pending",
	OutcomeBuilt:   "built",
	OutcomeRebased: "rebased",
	OutcomeCached:  "cached",
	OutcomeResumed: "resumed",
	OutcomeFailed:  "failed",
}

// String returns the display name of the outcome.
func (o Outcome) String() string {
	if n, ok := outcomeNames[o]; ok {
		return n
	}
	return fmt.Sprintf("outcome(%d)", uint8(o))
}

// Node is one unit of link work inside a run.  All methods are safe
// on a nil receiver (they record nothing), so pipeline code can hold
// a node unconditionally.
type Node struct {
	run *Run
	// Immutable after creation.
	ID      int
	Parent  int // -1 for the root node
	Name    string
	Kind    Kind
	Started time.Time

	// Guarded by the owning Log's mutex.
	Key        string // cache key (set after placement)
	ContentKey string // placement-independent identity
	Outcome    Outcome
	Err        string
	Dur        time.Duration // set by Finish
	// CkptBytes is the size of this node's checkpoint blob, CkptErr why
	// its checkpoint failed (both zero when the node never checkpointed:
	// no store, or a cache hit).
	CkptBytes int
	CkptErr   string
	done      bool

	// Cost accumulates the branch's simulated server cycles; atomic so
	// the branch goroutine and the render path need no extra lock.
	Cost atomic.Uint64
}

// Run is one top-level instantiation's recorded graph: Nodes[0] is its
// root, and the run is active until the root finishes.
type Run struct {
	log *Log
	ID  uint64

	// Guarded by log.mu.
	Nodes []*Node
}

// maxRecentRuns bounds the history: enough for a post-mortem without
// unbounded daemon growth.
const maxRecentRuns = 8

// Log owns the recorded build graphs of one server: the active runs
// and a ring of recent finished ones.
type Log struct {
	mu     sync.Mutex
	nextID uint64
	active map[uint64]*Run
	recent []*Run // finished, oldest first
}

// NewLog returns an empty log.
func NewLog() *Log {
	return &Log{active: map[uint64]*Run{}}
}

// Begin opens a run for one top-level instantiation and returns its
// root node.
func (l *Log) Begin(name string, kind Kind) *Node {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.nextID++
	r := &Run{log: l, ID: l.nextID}
	l.active[r.ID] = r
	return r.nodeLocked(name, kind, -1)
}

// nodeLocked appends a node to the run.  Caller holds log.mu.
func (r *Run) nodeLocked(name string, kind Kind, parent int) *Node {
	n := &Node{run: r, ID: len(r.Nodes), Parent: parent, Name: name, Kind: kind, Started: time.Now()}
	r.Nodes = append(r.Nodes, n)
	return n
}

// Child records a node whose parent is the receiver, under the same
// run.  Nil-safe: a nil parent yields a nil child.
func (n *Node) Child(name string, kind Kind) *Node {
	if n == nil {
		return nil
	}
	l := n.run.log
	l.mu.Lock()
	defer l.mu.Unlock()
	return n.run.nodeLocked(name, kind, n.ID)
}

// locked runs f under the log's mutex; a nil node runs nothing.
func (n *Node) locked(f func()) {
	if n == nil {
		return
	}
	l := n.run.log
	l.mu.Lock()
	defer l.mu.Unlock()
	f()
}

// SetKeys records the node's cache key and placement-independent
// content key once placement has decided them.
func (n *Node) SetKeys(key, contentKey string) {
	n.locked(func() { n.Key, n.ContentKey = key, contentKey })
}

// Produced records the outcome of the stage that produced the node's
// image (built, rebased or resumed).  A stage finishing after its node
// did — a build the watchdog abandoned — changes nothing.
func (n *Node) Produced(o Outcome) {
	n.locked(func() {
		if !n.done {
			n.Outcome = o
		}
	})
}

// AddCost accrues simulated server cycles to the node.
func (n *Node) AddCost(cycles uint64) {
	if n == nil {
		return
	}
	n.Cost.Add(cycles)
}

// Checkpointed records the node's per-node store write: on success
// (err == nil) the node's result survives a daemon kill from this
// moment on.
func (n *Node) Checkpointed(bytes int, err error) {
	n.locked(func() {
		if err != nil {
			n.CkptErr = err.Error()
		} else {
			n.CkptBytes = bytes
		}
	})
}

// Finish closes the node and returns its outcome: failed on an error,
// else whatever stage produced its image, else cached.  Finishing the
// root retires its run to the recent ring.  A nil node returns
// OutcomePending.
func (n *Node) Finish(err error) (o Outcome) {
	n.locked(func() {
		n.done = true
		n.Dur = time.Since(n.Started)
		switch {
		case err != nil:
			n.Outcome, n.Err = OutcomeFailed, err.Error()
		case n.Outcome == OutcomePending:
			n.Outcome = OutcomeCached
		}
		o = n.Outcome
		if n.Parent < 0 {
			n.run.log.retireLocked(n.run)
		}
	})
	return o
}

// retireLocked moves a finished run to the recent ring.  Caller holds
// l.mu.
func (l *Log) retireLocked(r *Run) {
	delete(l.active, r.ID)
	l.recent = append(l.recent, r)
	if len(l.recent) > maxRecentRuns {
		l.recent = append(l.recent[:0], l.recent[len(l.recent)-maxRecentRuns:]...)
	}
}

// Render formats the log for the `omos graph` view: the run counts,
// then the caller's counter lines, then any active runs and the recent
// finished runs with their per-node tables.
func (l *Log) Render(counters string) string {
	l.mu.Lock()
	defer l.mu.Unlock()

	var sb strings.Builder
	fmt.Fprintf(&sb, "build graph: runs=%d active=%d\n", l.nextID, len(l.active))
	sb.WriteString(counters)

	actives := make([]*Run, 0, len(l.active))
	for _, r := range l.active {
		actives = append(actives, r)
	}
	sort.Slice(actives, func(i, j int) bool { return actives[i].ID < actives[j].ID })
	for _, r := range actives {
		renderRun(&sb, r)
	}
	if len(l.recent) > 0 {
		sb.WriteString("recent runs:\n")
		for i := len(l.recent) - 1; i >= 0; i-- {
			renderRun(&sb, l.recent[i])
		}
	}
	return sb.String()
}

// renderRun appends one run's header and node table.  Caller holds
// l.mu.
func renderRun(sb *strings.Builder, r *Run) {
	root := r.Nodes[0]
	status := "ok"
	switch {
	case !root.done:
		status = "active"
	case root.Err != "":
		status = "error: " + root.Err
	}
	fmt.Fprintf(sb, "  run %d %s nodes=%d %s", r.ID, root.Name, len(r.Nodes), status)
	if root.done {
		fmt.Fprintf(sb, " dur=%s", root.Dur.Round(time.Microsecond))
	}
	sb.WriteByte('\n')
	for _, n := range r.Nodes {
		fmt.Fprintf(sb, "    [%d] %s %s %s cost=%d", n.ID, n.Name, n.Kind, n.Outcome, n.Cost.Load())
		if n.done {
			fmt.Fprintf(sb, " dur=%s", n.Dur.Round(time.Microsecond))
		}
		if n.CkptBytes > 0 {
			fmt.Fprintf(sb, " ckpt=%dB", n.CkptBytes)
		}
		if n.Parent >= 0 {
			fmt.Fprintf(sb, " parent=%d", n.Parent)
		}
		if n.Err != "" {
			fmt.Fprintf(sb, " err=%q", n.Err)
		}
		if n.CkptErr != "" {
			fmt.Fprintf(sb, " ckpt-err=%q", n.CkptErr)
		}
		sb.WriteByte('\n')
	}
}
