package server

import (
	"context"

	"omos/internal/osim"
)

// InstantiateBatch instantiates a vector of meta-objects in one
// request, fanning the items across the build executor's worker pool
// (the calling goroutine always claims items itself, so nested
// fan-outs cannot deadlock).  Each item is an independent top-level
// instantiation — admission-gated individually, recorded as its own
// build-graph run — and done is invoked exactly once per index, from
// whichever goroutine finishes the item, in completion order.  A
// per-item failure (including an admission shed) lands only in that
// item's done call and never aborts its siblings.
//
// When p is non-nil, the requester is charged Cost.IPCBatchItem per
// item up front: the amortized dispatch share of one exchange, in
// place of the per-call IPC round trip a loop of single
// instantiations would pay.  Instances are not retained on behalf of
// the caller — the work product is a warm image cache.
func (s *Server) InstantiateBatch(ctx context.Context, names []string, p *osim.Process, done func(i int, err error)) {
	if len(names) == 0 {
		return
	}
	if c := asCharger(p); c != nil {
		c.ChargeServer(uint64(len(names)) * s.kern.Cost.IPCBatchItem)
	}
	tasks := make([]func(), len(names))
	for i := range names {
		i := i
		tasks[i] = func() {
			_, err := s.InstantiateCtx(ctx, names[i], nil)
			done(i, err)
		}
	}
	s.exec.Run(tasks)
}
