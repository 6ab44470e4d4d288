package server

import "omos/internal/store"

// RecordOf exposes an instance's full reconstruction state — segments
// as materialized in frames, symbols, entry, placement, pins, binding
// table — to the external oracle test (oracle_test.go), which has to
// live outside the package to import internal/workload.
func (s *Server) RecordOf(inst *Instance) *store.Record { return s.recordOf(inst) }
