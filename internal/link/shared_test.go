package link_test

import (
	"bytes"
	"reflect"
	"sync"
	"testing"

	"omos/internal/jigsaw"
	"omos/internal/link"
	"omos/internal/obj"
	"omos/internal/workload"
)

// encodeObjects encodes every object of m, in fragment order.
func encodeObjects(t *testing.T, m *jigsaw.Module) [][]byte {
	t.Helper()
	var out [][]byte
	for _, o := range m.Objects() {
		enc, err := obj.Encode(o)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, enc)
	}
	return out
}

// TestConcurrentLinkSharedModule runs Link, Measure and Partial from 8
// goroutines on one shared module — a 23-fragment one and libc — and
// requires every result to equal a single link's and every object's
// bytes to be unchanged afterwards: the linker reads the evaluated
// objects it is given and never writes them.
func TestConcurrentLinkSharedModule(t *testing.T) {
	const nfrags = 23
	wide := link.WideModule(t, nfrags)
	libc := compileModule(t, false, "", workload.LibcUnitOrder(), workload.LibcUnits())
	for _, c := range []goldenCase{
		{"wide", wide, progOpts("wide")},
		{"libc", libc, link.Options{Name: "libc", TextBase: 0x100_0000, DataBase: 0x4100_0000}},
	} {
		objs := encodeObjects(t, c.mod)
		want, err := link.Link(c.mod, c.opts)
		if err != nil {
			t.Fatal(err)
		}
		wantText, wantData := link.Measure(c.mod)
		wantFlat, err := link.Partial(c.mod, c.name+".o")
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				res, err := link.Link(c.mod, c.opts)
				if err != nil || !reflect.DeepEqual(res, want) {
					t.Errorf("%s: concurrent link differs from a single one (err %v)", c.name, err)
				}
				if text, data := link.Measure(c.mod); text != wantText || data != wantData {
					t.Errorf("%s: Measure = %d/%d, want %d/%d", c.name, text, data, wantText, wantData)
				}
				flat, err := link.Partial(c.mod, c.name+".o")
				if err != nil || !reflect.DeepEqual(flat, wantFlat) {
					t.Errorf("%s: concurrent flattening differs from a single one (err %v)", c.name, err)
				}
			}()
		}
		wg.Wait()
		for i, enc := range encodeObjects(t, c.mod) {
			if !bytes.Equal(enc, objs[i]) {
				t.Fatalf("%s: object %d changed under the links", c.name, i)
			}
		}
		if c.mod == wide {
			if _, code := link.RunImage(t, want.Image); code != nfrags*(nfrags-1)/2 {
				t.Fatalf("exit = %d, want %d", code, nfrags*(nfrags-1)/2)
			}
		}
	}
}
