package main

// perLayerDefs names every per-layer metric a traced run prints, with
// its unit and direction.  BENCHMARK.json repeats the list;
// TestBenchmarkJSONMatches keeps the two in step.  Where each comes
// from, and which end-to-end metric it should move, is in README.md.
var perLayerDefs = []metricDef{
	// ipc: serial calls through the stack probe's connection.
	{Name: "ipc.call_self_us", Unit: "us", Better: "lower"},
	{Name: "ipc.allocs_call", Unit: "count", Better: "lower"},
	{Name: "ipc.wire_bytes_call", Unit: "bytes", Better: "lower"},
	{Name: "ipc.dial_hello_us", Unit: "us", Better: "lower"},
	// daemon
	{Name: "daemon.run_self_us", Unit: "us", Better: "lower"},
	{Name: "daemon.stats_us", Unit: "us", Better: "lower"},
	{Name: "daemon.health_us", Unit: "us", Better: "lower"},
	{Name: "daemon.list_us", Unit: "us", Better: "lower"},
	{Name: "daemon.install_ms", Unit: "ms", Better: "lower"},
	// loader
	{Name: "loader.exec_us.ls", Unit: "us", Better: "lower"},
	{Name: "loader.exec_ms.codegen", Unit: "ms", Better: "lower"},
	{Name: "loader.bootstrap_extra_us", Unit: "us", Better: "lower"},
	// server: direct calls
	{Name: "server.inst_warm_us.ls", Unit: "us", Better: "lower"},
	{Name: "server.inst_warm_ms.codegen", Unit: "ms", Better: "lower"},
	{Name: "server.inst_warm_allocs.ls", Unit: "count", Better: "lower"},
	{Name: "server.inst_warm_allocs.codegen", Unit: "count", Better: "lower"},
	{Name: "server.inst_warm_sim_cycles.codegen", Unit: "cycles", Better: "lower"},
	{Name: "server.inst_cold_ms.gen", Unit: "ms", Better: "lower"},
	{Name: "server.inst_cold_ms.codegen", Unit: "ms", Better: "lower"},
	{Name: "server.define_us", Unit: "us", Better: "lower"},
	{Name: "server.evict_remove_us", Unit: "us", Better: "lower"},
	{Name: "server.map_us", Unit: "us", Better: "lower"},
	{Name: "server.attach_store_ms", Unit: "ms", Better: "lower"},
	// server: counters over the traced window, per op
	{Name: "server.cache_hits", Unit: "count/op", Better: "higher"},
	{Name: "server.cache_misses", Unit: "count/op", Better: "lower"},
	{Name: "server.hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "server.images_built", Unit: "count/op", Better: "lower"},
	{Name: "server.rebases", Unit: "count/op", Better: "lower"},
	{Name: "server.symbol_searches", Unit: "count/op", Better: "lower"},
	{Name: "server.binding_hits", Unit: "count/op", Better: "higher"},
	{Name: "server.store_stores", Unit: "count/op", Better: "lower"},
	{Name: "server.store_loads", Unit: "count/op", Better: "lower"},
	{Name: "server.checkpoint_bytes", Unit: "bytes/op", Better: "lower"},
	// the toolchain under the server
	{Name: "blueprint.parse_us.libc", Unit: "us", Better: "lower"},
	{Name: "mgraph.build_us.libc", Unit: "us", Better: "lower"},
	{Name: "mgraph.eval_ms.libc", Unit: "ms", Better: "lower"},
	{Name: "mgraph.eval_ms.codegen", Unit: "ms", Better: "lower"},
	{Name: "mgraph.hash_us.codegen", Unit: "us", Better: "lower"},
	{Name: "minic.compile_ms.libc", Unit: "ms", Better: "lower"},
	{Name: "minic.compile_ms.codegen", Unit: "ms", Better: "lower"},
	{Name: "minic.compile_us.gen", Unit: "us", Better: "lower"},
	{Name: "minic.allocs.codegen", Unit: "count", Better: "lower"},
	{Name: "asm.assemble_us.crt0", Unit: "us", Better: "lower"},
	{Name: "jigsaw.merge_us.codegen", Unit: "us", Better: "lower"},
	{Name: "link.measure_us.codegen", Unit: "us", Better: "lower"},
	{Name: "link.link_ms.libc", Unit: "ms", Better: "lower"},
	{Name: "link.link_ms.codegen", Unit: "ms", Better: "lower"},
	{Name: "link.relocs.codegen", Unit: "count", Better: "lower"},
	{Name: "link.rebase_us.libc", Unit: "us", Better: "lower"},
	{Name: "constraint.place_us.at300", Unit: "us", Better: "lower"},
	{Name: "obj.encode_us", Unit: "us", Better: "lower"},
	{Name: "obj.decode_us", Unit: "us", Better: "lower"},
	// store
	{Name: "store.open_ms.n256", Unit: "ms", Better: "lower"},
	{Name: "store.put_us", Unit: "us", Better: "lower"},
	{Name: "store.get_us", Unit: "us", Better: "lower"},
	{Name: "store.encode_us", Unit: "us", Better: "lower"},
	{Name: "store.decode_us", Unit: "us", Better: "lower"},
	{Name: "store.record_bytes", Unit: "bytes", Better: "lower"},
	{Name: "store.flush_ms", Unit: "ms", Better: "lower"},
	// the simulated machine
	{Name: "osim.run_us.ls", Unit: "us", Better: "lower"},
	{Name: "osim.run_us.ls-laF", Unit: "us", Better: "lower"},
	{Name: "osim.run_ms.codegen", Unit: "ms", Better: "lower"},
	{Name: "osim.spawn_release_us", Unit: "us", Better: "lower"},
	{Name: "vm.sim_mcycles_s", Unit: "Mcycles/s", Better: "higher"},
	{Name: "dynlink.sim_cycles.ls", Unit: "cycles", Better: "lower"},
	{Name: "dynlink.sim_cycles.codegen", Unit: "cycles", Better: "lower"},
	// the Go runtime over the traced window
	{Name: "go.alloc_mb_op", Unit: "MB/op", Better: "lower"},
	{Name: "go.gc_cycles_op", Unit: "count/op", Better: "lower"},
	{Name: "go.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "go.heap_growth_kb_op", Unit: "KB/op", Better: "lower"},
	// the trace itself
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
	{Name: "trace.cover_pct", Unit: "%", Better: "higher"},
}
