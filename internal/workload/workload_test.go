package workload

import (
	"regexp"
	"strings"
	"testing"

	"omos/internal/minic"

	"omos/internal/dynlink"
	"omos/internal/osim"
	"omos/internal/server"
)

func smallCG() CodegenParams {
	return CodegenParams{Units: 6, FuncsPerUnit: 6, HotIters: 4}
}

func TestOMOSLs(t *testing.T) {
	w, err := SetupOMOS(smallCG())
	if err != nil {
		t.Fatal(err)
	}
	p, err := w.RT.ExecIntegrated("/bin/ls", []string{"/data/one"})
	if err != nil {
		t.Fatal(err)
	}
	code, err := w.Kern.RunToExit(p)
	if err != nil {
		t.Fatal(err)
	}
	if code != 0 {
		t.Fatalf("ls exit = %d, output=%q", code, p.Output.String())
	}
	if got := p.Output.String(); got != "only-file\n" {
		t.Fatalf("ls output = %q", got)
	}

	// Long listing of the populated directory.
	p2, err := w.RT.ExecIntegrated("/bin/ls", []string{"-laF", "/data/many"})
	if err != nil {
		t.Fatal(err)
	}
	if code, err := w.Kern.RunToExit(p2); err != nil || code != 0 {
		t.Fatalf("ls -laF: code=%d err=%v out=%q", code, err, p2.Output.String())
	}
	out := p2.Output.String()
	if !strings.Contains(out, "file07.txt") {
		t.Fatalf("missing entry in output: %q", out)
	}
	if !strings.Contains(out, "subdir/") {
		t.Fatalf("directory not marked: %q", out)
	}
	lines := strings.Count(out, "\n")
	if lines != 25 {
		t.Fatalf("lines = %d, want 25", lines)
	}
}

func TestOMOSCodegen(t *testing.T) {
	w, err := SetupOMOS(smallCG())
	if err != nil {
		t.Fatal(err)
	}
	p, err := w.RT.ExecIntegrated("/bin/codegen", nil)
	if err != nil {
		t.Fatal(err)
	}
	code, err := w.Kern.RunToExit(p)
	if err != nil {
		t.Fatal(err)
	}
	if code != 0 {
		t.Fatalf("codegen exit = %d", code)
	}
	data, _, err := w.Kern.FS.ReadFile("/data/cg/out")
	if err != nil {
		t.Fatal(err)
	}
	if len(data) == 0 {
		t.Fatal("codegen wrote no output")
	}
}

func TestBaselineMatchesOMOS(t *testing.T) {
	cg := smallCG()
	ow, err := SetupOMOS(cg)
	if err != nil {
		t.Fatal(err)
	}
	bw, err := SetupBaseline(cg)
	if err != nil {
		t.Fatal(err)
	}

	run := func(name string, f func() (*osim.Process, error)) string {
		t.Helper()
		p, err := f()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		code, err := p.Kern.RunToExit(p)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if code != 0 {
			t.Fatalf("%s: exit %d (output %q)", name, code, p.Output.String())
		}
		return p.Output.String()
	}

	for _, args := range [][]string{{"/data/one"}, {"-laF", "/data/many"}} {
		args := args
		omosOut := run("omos ls", func() (*osim.Process, error) {
			return ow.RT.ExecIntegrated("/bin/ls", args)
		})
		dynOut := run("dyn ls", func() (*osim.Process, error) {
			return dynlink.Exec(bw.Kern, bw.LsPath, args, dynlink.Options{})
		})
		staticOut := run("static ls", func() (*osim.Process, error) {
			return dynlink.Exec(bw.Kern, bw.LsStaticPath, args, dynlink.Options{})
		})
		if omosOut != dynOut || omosOut != staticOut {
			t.Fatalf("outputs differ for %v:\nomos:   %q\ndyn:    %q\nstatic: %q",
				args, omosOut, dynOut, staticOut)
		}
	}

	// codegen under both worlds computes the same result.
	run("omos codegen", func() (*osim.Process, error) {
		return ow.RT.ExecIntegrated("/bin/codegen", nil)
	})
	omosResult, _, err := ow.Kern.FS.ReadFile("/data/cg/out")
	if err != nil {
		t.Fatal(err)
	}
	run("dyn codegen", func() (*osim.Process, error) {
		return dynlink.Exec(bw.Kern, bw.CodegenPath, nil, dynlink.Options{})
	})
	dynResult, _, err := bw.Kern.FS.ReadFile("/data/cg/out")
	if err != nil {
		t.Fatal(err)
	}
	if string(omosResult) != string(dynResult) {
		t.Fatalf("codegen results differ: omos=%q dyn=%q", omosResult, dynResult)
	}
}

func TestLibcUnitsCompile(t *testing.T) {
	for name, src := range LibcUnits() {
		for _, pic := range []bool{false, true} {
			if _, err := minic.Compile(src, minic.Options{Unit: name + ".c", PIC: pic}); err != nil {
				t.Errorf("libc unit %s (pic=%v): %v", name, pic, err)
			}
		}
	}
}

// TestCodegenShapeMatchesPaper: the default parameters give the
// paper's scale — roughly 1,000 functions across 32 units plus six
// libraries — and generation is deterministic.
func TestCodegenShapeMatchesPaper(t *testing.T) {
	p := DefaultCodegen()
	units := CodegenUnits(p)
	if len(units) != p.Units+1 {
		t.Fatalf("units = %d", len(units))
	}
	fnRe := regexp.MustCompile(`(?m)^int \w+\(`)
	funcs := 0
	for _, src := range units {
		funcs += len(fnRe.FindAllString(src, -1))
	}
	if funcs < 900 || funcs > 1100 {
		t.Fatalf("functions = %d, want ~1000", funcs)
	}
	if CodegenUnits(p)["cg00"] != units["cg00"] {
		t.Fatal("generation not deterministic")
	}
	order := CodegenUnitOrder(p)
	if order[0] != "cg00" || order[len(order)-1] != "main" {
		t.Fatalf("order = %v", order)
	}
}

// TestDeterministicImages: two fresh servers building the same
// blueprint produce byte-identical images — the property that makes
// cached images trustworthy build artifacts.
func TestDeterministicImages(t *testing.T) {
	build := func() []byte {
		w, err := SetupOMOS(smallCG())
		if err != nil {
			t.Fatal(err)
		}
		inst, err := w.Srv.Instantiate("/bin/ls", nil)
		if err != nil {
			t.Fatal(err)
		}
		// The frames hold the read-only bytes, the templates the rest.
		var out []byte
		for _, in := range append([]*server.Instance{inst}, inst.Libs...) {
			for _, seg := range in.ROSegs {
				data, ok := w.Kern.FT.SegBytes(seg)
				if !ok {
					t.Fatalf("%s: segment %s released", in.Name, seg.Name)
				}
				out = append(out, data...)
			}
			for _, seg := range in.RWSegs {
				out = append(out, seg.Data...)
			}
		}
		return out
	}
	a := build()
	b := build()
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("sizes differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("images differ at byte %d", i)
		}
	}
}

// TestLibcIsSubstantial: libc has the bulk that makes sharing worth
// measuring.
func TestLibcIsSubstantial(t *testing.T) {
	w, err := SetupOMOS(smallCG())
	if err != nil {
		t.Fatal(err)
	}
	inst, err := w.Srv.Instantiate("/lib/libc", nil)
	if err != nil {
		t.Fatal(err)
	}
	if inst.Res.TextSize < 64*1024 {
		t.Fatalf("libc text = %d bytes, want >= 64KB", inst.Res.TextSize)
	}
	if len(inst.Res.Image.Syms) < 150 {
		t.Fatalf("libc exports = %d, want >= 150", len(inst.Res.Image.Syms))
	}
}

// TestAllSchemesAgree: every scheme in the repository runs the same
// program with byte-identical output — static, traditional lazy,
// traditional bind-now, OMOS bootstrap, OMOS integrated, OMOS
// partial-image, and the #! export path.
func TestAllSchemesAgree(t *testing.T) {
	cg := smallCG()
	ow, err := SetupOMOS(cg)
	if err != nil {
		t.Fatal(err)
	}
	bw, err := SetupBaseline(cg)
	if err != nil {
		t.Fatal(err)
	}
	if err := ow.RT.BuildPartialExec("/bin/ls", "/bin/ls.partial"); err != nil {
		t.Fatal(err)
	}
	if err := ow.RT.ExportToUnix("/bin/ls", "/usr/bin/ls"); err != nil {
		t.Fatal(err)
	}
	args := []string{"-laF", "/data/many"}
	schemes := []struct {
		name   string
		launch func() (*osim.Process, error)
	}{
		{"static", func() (*osim.Process, error) {
			return dynlink.Exec(bw.Kern, bw.LsStaticPath, args, dynlink.Options{})
		}},
		{"traditional-lazy", func() (*osim.Process, error) {
			return dynlink.Exec(bw.Kern, bw.LsPath, args, dynlink.Options{})
		}},
		{"traditional-bindnow", func() (*osim.Process, error) {
			return dynlink.Exec(bw.Kern, bw.LsPath, args, dynlink.Options{BindNow: true})
		}},
		{"omos-bootstrap", func() (*osim.Process, error) {
			return ow.RT.ExecBootstrap("/bin/ls", args)
		}},
		{"omos-integrated", func() (*osim.Process, error) {
			return ow.RT.ExecIntegrated("/bin/ls", args)
		}},
		{"omos-partial", func() (*osim.Process, error) {
			return ow.RT.ExecPartial("/bin/ls.partial", args)
		}},
		{"omos-hashbang", func() (*osim.Process, error) {
			return ow.RT.ExecPath("/usr/bin/ls", args)
		}},
	}
	var want string
	for _, sc := range schemes {
		p, err := sc.launch()
		if err != nil {
			t.Fatalf("%s: %v", sc.name, err)
		}
		code, err := p.Kern.RunToExit(p)
		if err != nil {
			t.Fatalf("%s: %v", sc.name, err)
		}
		if code != 0 {
			t.Fatalf("%s: exit %d", sc.name, code)
		}
		out := p.Output.String()
		p.Release()
		if want == "" {
			want = out
			continue
		}
		if out != want {
			t.Fatalf("%s output differs:\n%q\nvs\n%q", sc.name, out, want)
		}
	}
	if !strings.Contains(want, "subdir/") {
		t.Fatalf("suspicious output: %q", want)
	}
}
