package bench

import "testing"

func TestTable1aShape(t *testing.T) {
	tab := quickTable(t, "1a")
	// Paper: OMOS and HP-UX effectively tie on tiny ls (ratio 1.007).
	r := tab.Ratio(1)
	if r < 0.7 || r > 1.4 {
		t.Errorf("1a ratio = %.3f, want near parity (paper 1.007)\n%s", r, tab.Format())
	}
}

func TestTable1bShape(t *testing.T) {
	tab := quickTable(t, "1b")
	a := quickTable(t, "1a")
	// Paper: the -laF variant shifts the balance toward OMOS.
	if tab.Ratio(1) >= a.Ratio(1) {
		t.Errorf("1b ratio %.3f should improve on 1a ratio %.3f\n%s", tab.Ratio(1), a.Ratio(1), tab.Format())
	}
}

func TestTable1cShape(t *testing.T) {
	tab := quickTable(t, "1c")
	// Paper: OMOS wins on the large program (ratio .82).
	if r := tab.Ratio(1); r >= 1.0 {
		t.Errorf("1c ratio = %.3f, want < 1 (paper 0.82)\n%s", r, tab.Format())
	}
}

func TestTable1dShape(t *testing.T) {
	tab := quickTable(t, "1d")
	boot, integ := tab.Ratio(1), tab.Ratio(2)
	if boot >= 1.0 {
		t.Errorf("1d bootstrap ratio = %.3f, want < 1 (paper 0.60)", boot)
	}
	if integ >= boot {
		t.Errorf("1d integrated ratio %.3f should beat bootstrap %.3f (paper 0.44 vs 0.60)", integ, boot)
	}
}

func TestReorderShape(t *testing.T) {
	tab := quickTable(t, "reorder")
	if r := tab.Ratio(1); r >= 1.0 {
		t.Errorf("reorder ratio = %.3f, want < 1 (paper: >10%% speedup)\n%s", r, tab.Format())
	}
	base := tab.Rows[0].Extra["text-pages-touched"]
	opt := tab.Rows[1].Extra["text-pages-touched"]
	if opt >= base {
		t.Errorf("reordered layout touches %v pages, want fewer than %v", opt, base)
	}
}

func TestMemoryShape(t *testing.T) {
	tab := quickTable(t, "memory")
	shared := tab.Rows[0].Extra["resident-KB"]
	static := tab.Rows[1].Extra["resident-KB"]
	omos := tab.Rows[2].Extra["resident-KB"]
	if shared >= static {
		t.Errorf("shared libs resident %.0fKB should beat static %.0fKB", shared, static)
	}
	if omos >= static {
		t.Errorf("OMOS resident %.0fKB should beat static %.0fKB", omos, static)
	}
	if tab.Rows[0].Extra["dispatch-bytes-ls"] <= 0 {
		t.Error("traditional scheme should report dispatch overhead")
	}
}

func TestLinkTimeShape(t *testing.T) {
	tab := quickTable(t, "linktime")
	staticE := tab.Rows[0].Clock.Elapsed()
	nfsE := tab.Rows[1].Clock.Elapsed()
	sharedE := tab.Rows[2].Clock.Elapsed()
	warmE := tab.Rows[4].Clock.Elapsed()
	if sharedE >= staticE {
		t.Errorf("shared link %d should beat static link %d", sharedE, staticE)
	}
	if nfsE <= staticE {
		t.Errorf("NFS static link %d should cost more than local %d", nfsE, staticE)
	}
	if warmE >= tab.Rows[3].Clock.Elapsed() {
		t.Errorf("warm instantiation %d should beat cold %d", warmE, tab.Rows[3].Clock.Elapsed())
	}
}

func TestCacheWarmCold(t *testing.T) {
	tab := quickTable(t, "cache")
	if tab.Rows[1].Clock.Server*10 > tab.Rows[0].Clock.Server {
		t.Errorf("warm hit (%d) should be far cheaper than cold build (%d)",
			tab.Rows[1].Clock.Server, tab.Rows[0].Clock.Server)
	}
}

func TestConstraints(t *testing.T) {
	tab := quickTable(t, "constraints")
	if tab.Rows[0].Extra["moved"] != 0 {
		t.Error("first library should get its preferred region")
	}
	if tab.Rows[1].Extra["moved"] != 1 {
		t.Error("second library should be moved")
	}
	if tab.Rows[0].Extra["text-base"] == tab.Rows[1].Extra["text-base"] {
		t.Error("placements must not overlap")
	}
	if tab.Rows[2].Extra["cache-hit"] != 1 {
		t.Error("re-instantiation should hit the cache")
	}
}

func TestSchemesShape(t *testing.T) {
	tab := quickTable(t, "schemes")
	if len(tab.Rows) != 6 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// Static is the floor; the traditional lazy scheme is the ceiling;
	// OMOS integrated sits near static.
	static := tab.Rows[0].Clock.Elapsed()
	lazy := tab.Rows[1].Clock.Elapsed()
	integ := tab.Rows[4].Clock.Elapsed()
	if lazy <= static {
		t.Errorf("lazy (%d) should cost more than static (%d)", lazy, static)
	}
	if integ >= lazy {
		t.Errorf("OMOS integrated (%d) should beat traditional lazy (%d)", integ, lazy)
	}
}

func TestBindAblationShape(t *testing.T) {
	tab := quickTable(t, "binding")
	// codegen references far more imports than it calls, so deferred
	// binding must win.
	if r := tab.Ratio(1); r <= 1.0 {
		t.Errorf("bind-now ratio = %.3f, want > 1 (lazy should win)\n%s", r, tab.Format())
	}
}

func TestCacheAblationShape(t *testing.T) {
	tab := quickTable(t, "cacheoff")
	// Cached (row 1) must be dramatically cheaper than uncached (row 0).
	if r := tab.Ratio(1); r >= 0.95 {
		t.Errorf("cache ratio = %.3f, want well under 1\n%s", r, tab.Format())
	}
}

func TestMonitorOverheadShape(t *testing.T) {
	tab := quickTable(t, "monitor")
	// Monitoring must cost something, but the program must still run.
	if tab.Ratio(1) <= 1.0 {
		t.Errorf("monitored ratio = %.3f, want > 1\n%s", tab.Ratio(1), tab.Format())
	}
}

func TestClientsShape(t *testing.T) {
	tab := quickTable(t, "clients")
	static8 := tab.Rows[0].Extra["resident-KB@8"]
	trad8 := tab.Rows[1].Extra["resident-KB@8"]
	omos8 := tab.Rows[2].Extra["resident-KB@8"]
	if trad8 >= static8 {
		t.Errorf("traditional @8 clients %.0fKB should beat static %.0fKB", trad8, static8)
	}
	if omos8 >= static8 {
		t.Errorf("OMOS @8 clients %.0fKB should beat static %.0fKB", omos8, static8)
	}
	// The shared-library advantage must grow with client count.
	gap1 := tab.Rows[0].Extra["resident-KB@1"] - tab.Rows[2].Extra["resident-KB@1"]
	gap8 := static8 - omos8
	if gap8 <= gap1 {
		t.Errorf("sharing advantage should grow with clients: gap@1=%.0f gap@8=%.0f", gap1, gap8)
	}
}

func TestRebaseShape(t *testing.T) {
	tab := quickTable(t, "rebase")
	fresh := tab.Rows[0].Clock.Server
	for _, i := range []int{1, 2} {
		r := &tab.Rows[i]
		// The slide must be strictly cheaper than the relink it replaces.
		if r.Clock.Server >= fresh {
			t.Errorf("%s: %d cycles, want < fresh relink's %d", r.Label, r.Clock.Server, fresh)
		}
		if r.Extra["images-built"] != 0 {
			t.Errorf("%s: relinked %v images", r.Label, r.Extra["images-built"])
		}
		if r.Extra["patches-per-slide"] <= 0 {
			t.Errorf("%s: no patch sites rewritten", r.Label)
		}
		// Sliding must leave some pages physically shared; the dirtied
		// set is what the patches actually touched.
		if r.Extra["shared-pages"] <= 0 {
			t.Errorf("%s: no pages shared with the source variant", r.Label)
		}
	}
}

// TestPaperRatiosFullScale pins the calibrated Table 1 ratios at the
// paper's workload sizes (skipped under -short).
func TestPaperRatiosFullScale(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale calibration check skipped in -short mode")
	}
	cfg := DefaultConfig()
	cfg.ItersHPUX = 10
	cfg.ItersMach = 10
	checks := []struct {
		name, id string
		row      int
		lo, hi   float64
	}{
		{"1a", "1a", 1, 0.93, 1.10},       // paper 1.007
		{"1b", "1b", 1, 0.87, 0.97},       // paper 0.93
		{"1c", "1c", 1, 0.74, 0.88},       // paper 0.82
		{"1d-boot", "1d", 1, 0.55, 0.75},  // paper 0.60
		{"1d-integ", "1d", 2, 0.45, 0.65}, // paper 0.44
	}
	tabs := map[string]*Table{}
	for _, c := range checks {
		tab := tabs[c.id]
		if tab == nil {
			var err error
			if tab, err = entry(t, c.id).Run(cfg); err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			tabs[c.id] = tab
		}
		r := tab.Ratio(c.row)
		if r < c.lo || r > c.hi {
			t.Errorf("%s ratio = %.3f, want [%.2f, %.2f]\n%s", c.name, r, c.lo, c.hi, tab.Format())
		} else {
			t.Logf("%s ratio = %.3f (paper band [%.2f, %.2f])", c.name, r, c.lo, c.hi)
		}
	}
}

func TestBuildgraphShape(t *testing.T) {
	tab := quickTable(t, "buildgraph")
	cold := tab.Rows[0].Clock.Server
	prev := cold
	for _, i := range []int{1, 2, 3} {
		r := &tab.Rows[i]
		// Every resume must beat the cold build, and more surviving
		// checkpoints must cost less than fewer.
		if r.Clock.Server >= cold {
			t.Errorf("%s: %d cycles, want < cold build's %d", r.Label, r.Clock.Server, cold)
		}
		if r.Clock.Server > prev {
			t.Errorf("%s: %d cycles, want <= previous row's %d", r.Label, r.Clock.Server, prev)
		}
		prev = r.Clock.Server
		if r.Extra["nodes-resumed"] <= 0 {
			t.Errorf("%s: nothing resumed", r.Label)
		}
		if r.Extra["images-built"]+r.Extra["nodes-resumed"] != float64(graphLibs+1) {
			t.Errorf("%s: built %v + resumed %v != %d nodes",
				r.Label, r.Extra["images-built"], r.Extra["nodes-resumed"], graphLibs+1)
		}
	}
}

func TestResolutionShape(t *testing.T) {
	tab := quickTable(t, "resolution")
	if len(tab.Rows) != 4 {
		t.Fatalf("row count = %d, want 4\n%s", len(tab.Rows), tab.Format())
	}
	miss, hit, inv := &tab.Rows[1], &tab.Rows[2], &tab.Rows[3]
	// The replayed relink must beat the identical relink that was
	// forced to re-search — that delta is what the binding cache buys.
	if hit.Clock.Server >= miss.Clock.Server {
		t.Errorf("binding hit %d cycles, want < forced miss %d", hit.Clock.Server, miss.Clock.Server)
	}
	if hit.Extra["symbol-searches"] != 0 {
		t.Errorf("binding hit row searched %v symbols, want 0", hit.Extra["symbol-searches"])
	}
	if hit.Extra["binding-hits"] <= 0 {
		t.Errorf("binding hit row recorded no hits")
	}
	if miss.Extra["symbol-searches"] <= 0 || tab.Rows[0].Extra["symbol-searches"] <= 0 {
		t.Errorf("search rows recorded no symbol searches")
	}
	if inv.Extra["binding-invalidations"] <= 0 || inv.Extra["symbol-searches"] <= 0 {
		t.Errorf("invalidation row did not invalidate and re-search: %v", inv.Extra)
	}
}

func TestMeshShape(t *testing.T) {
	tab := quickTable(t, "mesh")
	if len(tab.Rows) != 2 {
		t.Fatalf("row count = %d, want 2\n%s", len(tab.Rows), tab.Format())
	}
	indep, meshed := &tab.Rows[0], &tab.Rows[1]
	// The whole point: the mesh links each content key once fleet-wide,
	// so it must build strictly fewer total bytes than four daemons
	// each relinking the world.
	if meshed.Extra["built-bytes-total"] >= indep.Extra["built-bytes-total"] {
		t.Errorf("mesh built %.0f bytes, independent fleet %.0f — want strictly fewer",
			meshed.Extra["built-bytes-total"], indep.Extra["built-bytes-total"])
	}
	// Remote misses are served by installing the owner's bytes.
	if meshed.Extra["mesh-blob-installs"] <= 0 {
		t.Errorf("mesh fleet installed no owner's blob: %v", meshed.Extra)
	}
	// The warm path must stay an ordinary cache hit: once the fleet has
	// converged, further runs consult no peer.
	if meshed.Extra["warm-runs"] <= 0 || meshed.Extra["warm-mesh-fetches"] != 0 {
		t.Errorf("%.0f warm runs on the converged fleet made %.0f peer consults, want > 0 runs and 0 consults",
			meshed.Extra["warm-runs"], meshed.Extra["warm-mesh-fetches"])
	}
	t.Log("\n" + tab.Format()) // not in the golden: this log is the run's only record
}

func TestUpgradeShape(t *testing.T) {
	tab := quickTable(t, "upgrade")
	if len(tab.Rows) != 3 {
		t.Fatalf("row count = %d, want 3\n%s", len(tab.Rows), tab.Format())
	}
	off, ten, full := &tab.Rows[0], &tab.Rows[1], &tab.Rows[2]
	// 0% canary routes nobody; routing is monotone in the percentage.
	if off.Extra["canary-instantiations"] != 0 {
		t.Errorf("0%% canary routed %v instantiations, want 0", off.Extra["canary-instantiations"])
	}
	if ten.Extra["canary-instantiations"] > full.Extra["canary-instantiations"] {
		t.Errorf("canary routing not monotone: 10%% = %v > 100%% = %v",
			ten.Extra["canary-instantiations"], full.Extra["canary-instantiations"])
	}
	if full.Extra["canary-instantiations"] <= 0 {
		t.Errorf("100%% canary routed nothing")
	}
	for _, r := range tab.Rows {
		// The stream pays more than an undisturbed warm instantiation
		// while the namespace churns — that is the dip being measured.
		if r.Extra["warm-dip-x"] < 1 {
			t.Errorf("%s: dip ratio %v < 1", r.Label, r.Extra["warm-dip-x"])
		}
		if r.Extra["images-built"] <= 0 {
			t.Errorf("%s: no images built while flipping", r.Label)
		}
	}
}
