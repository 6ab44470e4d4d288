package workload

import (
	"crypto/sha256"
	"encoding/hex"
	"strconv"
	"testing"

	"omos/internal/blueprint"
	"omos/internal/osim"
	"omos/internal/server"
)

// freshBoots returns n kernels, each with a new server, for Install to
// populate: every call must see an empty namespace, as a daemon boot
// does.
func freshBoots(n int) ([]*osim.Kernel, []*server.Server) {
	ks := make([]*osim.Kernel, n)
	ss := make([]*server.Server, n)
	for i := range ks {
		ks[i] = osim.NewKernel()
		ss[i] = server.New(ks[i])
	}
	return ks, ss
}

// BenchmarkInstall times a daemon boot's namespace install: the
// fixtures plus the eight workload definitions on a fresh server.
func BenchmarkInstall(b *testing.B) {
	ks, ss := freshBoots(b.N)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := Install(ks[i].FS, ss[i], DefaultCodegen()); err != nil {
			b.Fatal(err)
		}
	}
}

// installPins is the SHA-256 of every blueprint Install defines.  A
// blueprint's hash feeds every program key and binding id derived from
// it, so these texts must not move by a byte.
var installPins = []struct {
	path string
	lib  bool
	size int
	sum  string
}{
	{"/lib/libc", true, 20051, "eeacfd39603f6a3e930265301f2984425ccffabcd50e1e84d2f49bd92ff5db5e"},
	{"/lib/liba1", true, 4101, "b579774e606f619688abb57b8e4a5d5b8464a364612bb9a27492738b9f81ce74"},
	{"/lib/liba2", true, 4101, "1cdd9507638eb8a9c79b0b8992021f1d830e8ad3d4ed79e7755b84b4c977c61b"},
	{"/lib/libm", true, 3641, "2c76f3b1621350b1f7ac2a2c78224c0007b6a3d6319edfab2723eb6f7befb860"},
	{"/lib/libl", true, 1242, "674ca8690bfdc86a631ee5d8fef4dedad6aaeea0e48a9c4966910a4684962da2"},
	{"/lib/libC", true, 4841, "7f8d4e8d63cec74310503afc0a180508327cf4239b71bd504249923796e4a08e"},
	{"/bin/ls", false, 1743, "1e64b28a46950bba29ecf9b6c7a22c2dc4fe742bc360f6e407b119eb0e918014"},
	{"/bin/codegen", false, 174849, "bbdb9ceea86fce5a7268019e7e4301c7c80ad54a46befa103dd37eabeb9e9152"},
}

func TestInstallBlueprintsUnchanged(t *testing.T) {
	ks, ss := freshBoots(1)
	if err := Install(ks[0].FS, ss[0], DefaultCodegen()); err != nil {
		t.Fatal(err)
	}
	oracle := map[string]string{
		"/lib/libc":    oracleLibcBlueprint(),
		"/bin/ls":      oracleLsBlueprint(),
		"/bin/codegen": oracleCodegenBlueprint(DefaultCodegen()),
	}
	for i, lib := range oracleExtraLibs() {
		oracle["/lib/"+lib.Name] = oracleExtraLibBlueprint(i, lib.Source)
	}
	for _, pin := range installPins {
		src, lib, err := ss[0].ExportMeta(pin.path)
		if err != nil {
			t.Fatal(err)
		}
		if src != oracle[pin.path] {
			t.Errorf("%s: blueprint differs from the oracle's at byte %d", pin.path, firstDiff(src, oracle[pin.path]))
		}
		if sum := sha256.Sum256([]byte(src)); lib != pin.lib || len(src) != pin.size || hex.EncodeToString(sum[:]) != pin.sum {
			t.Errorf("%s: lib=%v size=%d sha256=%x, want lib=%v size=%d sha256=%s",
				pin.path, lib, len(src), sum, pin.lib, pin.size, pin.sum)
		}
	}
}

func firstDiff(a, b string) int {
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	return i
}

// TestGeneratorsMatchOracle: every generated source and blueprint,
// under the default and other codegen sizes, is the oracle's text.
func TestGeneratorsMatchOracle(t *testing.T) {
	for sec, n := range map[string]int{"hppa": 40, "m": 36, "l": 12, "x": 0, "y": 1, "z": 103} {
		if got, want := fillerUnit(sec, n), oracleFillerUnit(sec, n); got != want {
			t.Errorf("fillerUnit(%q, %d) differs at byte %d", sec, n, firstDiff(got, want))
		}
	}
	if got, want := LibcUnits(), oracleLibcUnits(); !mapsEqual(got, want) {
		t.Error("LibcUnits differs from the oracle")
	}
	if got, want := LibcBlueprint(), oracleLibcBlueprint(); got != want {
		t.Errorf("LibcBlueprint differs at byte %d", firstDiff(got, want))
	}
	for _, cg := range []CodegenParams{DefaultCodegen(), smallCG(), {Units: 1, FuncsPerUnit: 1, HotIters: 0},
		{Units: 12, FuncsPerUnit: 70, HotIters: 1000}, {Units: 105, FuncsPerUnit: 4, HotIters: -3}} {
		if got, want := CodegenUnits(cg), oracleCodegenUnits(cg); !mapsEqual(got, want) {
			t.Errorf("%+v: CodegenUnits differs from the oracle", cg)
		}
		if got, want := CodegenBlueprint(cg), oracleCodegenBlueprint(cg); got != want {
			t.Errorf("%+v: CodegenBlueprint differs at byte %d", cg, firstDiff(got, want))
		}
	}
}

func mapsEqual(a, b map[string]string) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if w, ok := b[k]; !ok || v != w {
			return false
		}
	}
	return true
}

// TestWorkloadUnitsQuoteAsStrconv: the blueprint quoter writes every
// workload source exactly as strconv.Quote does.
func TestWorkloadUnitsQuoteAsStrconv(t *testing.T) {
	srcs := []string{LsSource}
	for _, u := range LibcUnits() {
		srcs = append(srcs, u)
	}
	for _, lib := range ExtraLibs() {
		srcs = append(srcs, lib.Source)
	}
	for _, u := range CodegenUnits(DefaultCodegen()) {
		srcs = append(srcs, u)
	}
	for _, s := range srcs {
		if got, want := string(blueprint.AppendQuote(nil, s)), strconv.Quote(s); got != want {
			t.Fatalf("quoted %d bytes differ from strconv.Quote at byte %d", len(s), firstDiff(got, want))
		}
	}
}

// TestInstallAllocs bounds a boot's allocations, which fmt in the
// generators or a quoted string per unit would multiply.
func TestInstallAllocs(t *testing.T) {
	const runs = 5
	ks, ss := freshBoots(runs + 1)
	i := 0
	allocs := testing.AllocsPerRun(runs, func() {
		if err := Install(ks[i].FS, ss[i], DefaultCodegen()); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if allocs > 5000 {
		t.Fatalf("Install: %.0f allocations per boot, want <= 5000", allocs)
	}
	t.Logf("Install: %.0f allocations per boot", allocs)
}
