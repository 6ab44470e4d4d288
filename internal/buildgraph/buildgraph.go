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
// The Log keeps bounded rings of recent runs and per-node events
// (queued / started / checkpointed / done / failed, with durations
// and simulated cost units) plus lifetime counters; Render formats
// both for the `omos graph` / `omosd -graph` views.  Everything is
// nil-safe on the Node side: pipeline stages that run outside a
// recorded run (no Run in the context) simply record nothing.
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
	// OutcomeRebased: served by sliding a cached placement variant.
	OutcomeRebased
	// OutcomeCached: served from the in-memory image cache (or a
	// concurrent leader's build) without running this node's closure.
	OutcomeCached
	// OutcomeResumed: served by an instance reconstructed from the
	// persistent store after a warm boot — a previous session's
	// checkpoint.  Each such instance counts as resumed exactly once.
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

// Event is one entry of the per-node event stream.
type Event struct {
	Seq  uint64
	At   time.Time
	Run  uint64
	Node int
	Name string
	// Type is one of queued, started, checkpointed,
	// checkpoint-failed, done, failed.
	Type string
	// Outcome accompanies done events.
	Outcome string
	// Dur accompanies done/failed (time since the node started) and
	// checkpointed events.
	Dur time.Duration
	// Cost is the node's accumulated simulated server cycles (done
	// events).
	Cost uint64
	// Bytes is the checkpoint blob size (checkpointed events).
	Bytes int
	// Err carries the failure text (failed / checkpoint-failed).
	Err string
}

// Node is one unit of link work inside a run.  All methods are safe
// on a nil receiver (they record nothing), so pipeline code can hold
// a node unconditionally.
type Node struct {
	run *Run
	// Immutable after creation.
	ID     int
	Parent int // -1 for the root node
	Name   string
	Kind   Kind

	// Guarded by the owning Log's mutex.
	Key        string // cache key (set after placement)
	ContentKey string // placement-independent identity
	Outcome    Outcome
	Err        string
	QueuedAt   time.Time
	StartedAt  time.Time
	DoneAt     time.Time
	// CkptBytes is the size of this node's checkpoint blob (0 when the
	// node never checkpointed: no store, cache hit, or a failed write).
	CkptBytes int

	// Cost accumulates the branch's simulated server cycles; atomic so
	// the branch goroutine and the render path need no extra lock.
	Cost atomic.Uint64

	// linked/rebased record which closure path ran, for outcome
	// classification at finish time.
	linked  bool
	rebased bool
}

// Run is one top-level instantiation's recorded graph.
type Run struct {
	log *Log
	// Immutable after creation.
	ID      uint64
	Root    string
	Started time.Time

	// Guarded by log.mu.
	Nodes    []*Node
	Finished time.Time
	Err      string
	done     bool
}

// Counters is a snapshot of the log's lifetime totals.
type Counters struct {
	Runs uint64
	// Per-node outcomes.
	NodesBuilt   uint64
	NodesRebased uint64
	NodesCached  uint64
	NodesResumed uint64
	NodesFailed  uint64
	// Checkpoint accounting: store writes that preserved a completed
	// node for the next session, failures (injected or real — the
	// build still succeeds; only future warm starts are lost), and
	// total blob bytes written.
	NodesCheckpointed uint64
	CheckpointsFailed uint64
	CheckpointBytes   uint64
}

// Ring bounds: enough history for a post-mortem without unbounded
// daemon growth.
const (
	maxRecentRuns = 8
	maxEvents     = 512
)

// Log owns the recorded build graphs of one server: active runs, a
// ring of recent finished runs, the event ring, and the lifetime
// counters surfaced in Stats and the health endpoint.
type Log struct {
	mu     sync.Mutex
	seq    uint64
	nextID uint64
	active map[uint64]*Run
	recent []*Run // finished, oldest first
	events []Event

	runs              atomic.Uint64
	nodesBuilt        atomic.Uint64
	nodesRebased      atomic.Uint64
	nodesCached       atomic.Uint64
	nodesResumed      atomic.Uint64
	nodesFailed       atomic.Uint64
	nodesCheckpointed atomic.Uint64
	checkpointsFailed atomic.Uint64
	checkpointBytes   atomic.Uint64
}

// NewLog returns an empty log.
func NewLog() *Log {
	return &Log{active: map[uint64]*Run{}}
}

// Counters returns the lifetime totals.
func (l *Log) Counters() Counters {
	return Counters{
		Runs:              l.runs.Load(),
		NodesBuilt:        l.nodesBuilt.Load(),
		NodesRebased:      l.nodesRebased.Load(),
		NodesCached:       l.nodesCached.Load(),
		NodesResumed:      l.nodesResumed.Load(),
		NodesFailed:       l.nodesFailed.Load(),
		NodesCheckpointed: l.nodesCheckpointed.Load(),
		CheckpointsFailed: l.checkpointsFailed.Load(),
		CheckpointBytes:   l.checkpointBytes.Load(),
	}
}

// emit appends to the event ring.  Caller holds l.mu.
func (l *Log) emit(ev Event) {
	l.seq++
	ev.Seq = l.seq
	ev.At = time.Now()
	l.events = append(l.events, ev)
	if len(l.events) > maxEvents {
		drop := len(l.events) - maxEvents
		l.events = append(l.events[:0], l.events[drop:]...)
	}
}

// Events returns up to n most recent events, oldest first.
func (l *Log) Events(n int) []Event {
	l.mu.Lock()
	defer l.mu.Unlock()
	evs := l.events
	if n > 0 && len(evs) > n {
		evs = evs[len(evs)-n:]
	}
	return append([]Event(nil), evs...)
}

// Begin opens a run for one top-level instantiation.
func (l *Log) Begin(root string) *Run {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.nextID++
	r := &Run{log: l, ID: l.nextID, Root: root, Started: time.Now()}
	l.active[r.ID] = r
	l.runs.Add(1)
	return r
}

// End closes the run, recording the overall error (nil for success),
// and retires it to the recent ring.  Safe to call once; a nil run is
// a no-op.
func (r *Run) End(err error) {
	if r == nil {
		return
	}
	l := r.log
	l.mu.Lock()
	defer l.mu.Unlock()
	if r.done {
		return
	}
	r.done = true
	r.Finished = time.Now()
	if err != nil {
		r.Err = err.Error()
	}
	delete(l.active, r.ID)
	l.recent = append(l.recent, r)
	if len(l.recent) > maxRecentRuns {
		l.recent = append(l.recent[:0], l.recent[len(l.recent)-maxRecentRuns:]...)
	}
}

// Node records a new (queued) node under the run.  parent is the
// enclosing node, nil for the root.  A nil run returns a nil node.
func (r *Run) Node(name string, kind Kind, parent *Node) *Node {
	if r == nil {
		return nil
	}
	l := r.log
	l.mu.Lock()
	defer l.mu.Unlock()
	n := &Node{run: r, ID: len(r.Nodes), Parent: -1, Name: name, Kind: kind, QueuedAt: time.Now()}
	if parent != nil {
		n.Parent = parent.ID
	}
	r.Nodes = append(r.Nodes, n)
	l.emit(Event{Run: r.ID, Node: n.ID, Name: name, Type: "queued"})
	return n
}

// Child records a node whose parent is the receiver, under the same
// run.  Nil-safe: a nil parent yields a nil child.
func (n *Node) Child(name string, kind Kind) *Node {
	if n == nil {
		return nil
	}
	return n.run.Node(name, kind, n)
}

// Start marks the node's branch as executing.
func (n *Node) Start() {
	if n == nil {
		return
	}
	l := n.run.log
	l.mu.Lock()
	defer l.mu.Unlock()
	n.StartedAt = time.Now()
	l.emit(Event{Run: n.run.ID, Node: n.ID, Name: n.Name, Type: "started"})
}

// SetKeys records the node's cache key and placement-independent
// content key once placement has decided them.
func (n *Node) SetKeys(key, contentKey string) {
	if n == nil {
		return
	}
	l := n.run.log
	l.mu.Lock()
	defer l.mu.Unlock()
	n.Key = key
	n.ContentKey = contentKey
}

// MarkLink records that a full link ran for this node.
func (n *Node) MarkLink() {
	if n == nil {
		return
	}
	n.mark(&n.linked)
}

// MarkRebase records that the node was served by the rebase fast
// path.
func (n *Node) MarkRebase() {
	if n == nil {
		return
	}
	n.mark(&n.rebased)
}

func (n *Node) mark(flag *bool) {
	l := n.run.log
	l.mu.Lock()
	defer l.mu.Unlock()
	*flag = true
}

// Linked reports whether a full link ran for this node.
func (n *Node) Linked() bool { return n.flag(func(n *Node) bool { return n.linked }) }

// Rebased reports whether the node was served by a rebase.
func (n *Node) Rebased() bool { return n.flag(func(n *Node) bool { return n.rebased }) }

func (n *Node) flag(get func(*Node) bool) bool {
	if n == nil {
		return false
	}
	l := n.run.log
	l.mu.Lock()
	defer l.mu.Unlock()
	return get(n)
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
// moment on.  The log's counters move even when node is nil (a
// checkpoint outside any recorded run still happened); the event is
// emitted only for recorded nodes.
func (l *Log) Checkpointed(n *Node, bytes int, err error) {
	if err != nil {
		l.checkpointsFailed.Add(1)
	} else {
		l.nodesCheckpointed.Add(1)
		l.checkpointBytes.Add(uint64(bytes))
	}
	if n == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	ev := Event{Run: n.run.ID, Node: n.ID, Name: n.Name, Bytes: bytes}
	if !n.StartedAt.IsZero() {
		ev.Dur = time.Since(n.StartedAt)
	}
	if err != nil {
		ev.Type = "checkpoint-failed"
		ev.Err = err.Error()
	} else {
		ev.Type = "checkpointed"
		n.CkptBytes = bytes
	}
	l.emit(ev)
}

// Finish resolves the node with its outcome, bumping the matching
// lifetime counter and emitting a done/failed event.
func (n *Node) Finish(outcome Outcome, err error) {
	if n == nil {
		return
	}
	l := n.run.log
	switch outcome {
	case OutcomeBuilt:
		l.nodesBuilt.Add(1)
	case OutcomeRebased:
		l.nodesRebased.Add(1)
	case OutcomeCached:
		l.nodesCached.Add(1)
	case OutcomeResumed:
		l.nodesResumed.Add(1)
	case OutcomeFailed:
		l.nodesFailed.Add(1)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	n.Outcome = outcome
	n.DoneAt = time.Now()
	ev := Event{Run: n.run.ID, Node: n.ID, Name: n.Name, Type: "done",
		Outcome: outcome.String(), Cost: n.Cost.Load()}
	if !n.StartedAt.IsZero() {
		ev.Dur = n.DoneAt.Sub(n.StartedAt)
	}
	if err != nil {
		ev.Type = "failed"
		ev.Err = err.Error()
		n.Err = err.Error()
	}
	l.emit(ev)
}

// Render formats the log for the graph introspection views: lifetime
// counters, any active runs, the recent finished runs with their
// per-node tables, and the tail of the event stream.
func (l *Log) Render() string {
	c := l.Counters()
	l.mu.Lock()
	defer l.mu.Unlock()

	var sb strings.Builder
	fmt.Fprintf(&sb, "build graph: runs=%d active=%d\n", c.Runs, len(l.active))
	fmt.Fprintf(&sb, "nodes: built=%d rebased=%d cached=%d resumed=%d failed=%d\n",
		c.NodesBuilt, c.NodesRebased, c.NodesCached, c.NodesResumed, c.NodesFailed)
	fmt.Fprintf(&sb, "checkpoints: ok=%d failed=%d bytes=%d\n",
		c.NodesCheckpointed, c.CheckpointsFailed, c.CheckpointBytes)

	actives := make([]*Run, 0, len(l.active))
	for _, r := range l.active {
		actives = append(actives, r)
	}
	sort.Slice(actives, func(i, j int) bool { return actives[i].ID < actives[j].ID })
	for _, r := range actives {
		renderRun(&sb, r, "active")
	}
	if len(l.recent) > 0 {
		sb.WriteString("recent runs:\n")
		for i := len(l.recent) - 1; i >= 0; i-- {
			r := l.recent[i]
			status := "ok"
			if r.Err != "" {
				status = "error: " + r.Err
			}
			renderRun(&sb, r, status)
		}
	}
	if len(l.events) > 0 {
		sb.WriteString("recent events:\n")
		evs := l.events
		if len(evs) > 24 {
			evs = evs[len(evs)-24:]
		}
		for _, ev := range evs {
			fmt.Fprintf(&sb, "  #%d run=%d node=%d %s %s", ev.Seq, ev.Run, ev.Node, ev.Name, ev.Type)
			if ev.Outcome != "" {
				fmt.Fprintf(&sb, " outcome=%s", ev.Outcome)
			}
			if ev.Dur > 0 {
				fmt.Fprintf(&sb, " dur=%s", ev.Dur.Round(time.Microsecond))
			}
			if ev.Cost > 0 {
				fmt.Fprintf(&sb, " cost=%d", ev.Cost)
			}
			if ev.Bytes > 0 {
				fmt.Fprintf(&sb, " bytes=%d", ev.Bytes)
			}
			if ev.Err != "" {
				fmt.Fprintf(&sb, " err=%q", ev.Err)
			}
			sb.WriteByte('\n')
		}
	}
	return sb.String()
}

// renderRun appends one run's header and node table.  Caller holds
// l.mu.
func renderRun(sb *strings.Builder, r *Run, status string) {
	dur := time.Duration(0)
	if !r.Finished.IsZero() {
		dur = r.Finished.Sub(r.Started)
	}
	fmt.Fprintf(sb, "  run %d %s nodes=%d %s", r.ID, r.Root, len(r.Nodes), status)
	if dur > 0 {
		fmt.Fprintf(sb, " dur=%s", dur.Round(time.Microsecond))
	}
	sb.WriteByte('\n')
	for _, n := range r.Nodes {
		fmt.Fprintf(sb, "    [%d] %s %s %s cost=%d", n.ID, n.Name, n.Kind, n.Outcome, n.Cost.Load())
		if n.CkptBytes > 0 {
			fmt.Fprintf(sb, " ckpt=%dB", n.CkptBytes)
		}
		if n.Parent >= 0 {
			fmt.Fprintf(sb, " parent=%d", n.Parent)
		}
		if n.Err != "" {
			fmt.Fprintf(sb, " err=%q", n.Err)
		}
		sb.WriteByte('\n')
	}
}
