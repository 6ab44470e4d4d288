package bench

import "testing"

func TestConcurrencyShape(t *testing.T) {
	tab := quickTable(t, "concurrency")
	rows := map[string]*Row{}
	for i := range tab.Rows {
		rows[tab.Rows[i].Label] = &tab.Rows[i]
	}

	// Singleflight: the number of images built must not grow with the
	// number of racing cold clients.
	built1 := rows["Cold, 1 clients"].Extra["images-built"]
	for _, label := range []string{"Cold, 2 clients", "Cold, 4 clients", "Cold, 8 clients"} {
		if b := rows[label].Extra["images-built"]; b != built1 {
			t.Errorf("%s built %v images, want %v (singleflight dedup)", label, b, built1)
		}
	}

	// Warm throughput must scale: aggregate ops per critical-path
	// megacycle at 4 clients at least doubles the 1-client figure.
	tp1 := rows["Warm, 1 clients"].Extra["ops-per-Mcycle"]
	tp4 := rows["Warm, 4 clients"].Extra["ops-per-Mcycle"]
	if tp4 < 2*tp1 {
		t.Errorf("warm throughput @4 clients = %.0f ops/Mc, want >= 2x the 1-client %.0f ops/Mc",
			tp4, tp1)
	}

	// The dependency fan-out must shorten the cold critical path.
	serial := rows["Cold, 1 client, workers=1"].Clock.Server
	parallel := rows["Cold, 1 client, workers=4"].Clock.Server
	if parallel >= serial {
		t.Errorf("parallel cold build (%d cycles) should beat serial (%d cycles)", parallel, serial)
	}
	// And the total build work must be identical either way.
	if a, b := rows["Cold, 1 client, workers=1"].Extra["build-cycles"],
		rows["Cold, 1 client, workers=4"].Extra["build-cycles"]; a != b {
		t.Errorf("total build work diverged: workers=1 %v, workers=4 %v", a, b)
	}
	t.Log("\n" + tab.Format())
}
