package image

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// goldenExec sets every field of every record kind, both flag bits,
// and two Syms entries inserted out of order (the encoder sorts them).
func goldenExec() *ExecFile {
	return &ExecFile{
		Image: Image{
			Name:  "golden.so",
			Entry: 0x1008,
			Segments: []Segment{
				{Name: "text", Addr: 0x1000, Data: []byte{1, 2, 3, 4, 5}, MemSize: 0x1000, Perm: PermR | PermX},
				{Name: "data", Addr: 0x4000, Data: []byte{9, 8}, MemSize: 0x2000, Perm: PermR | PermW},
			},
			Syms: map[string]uint64{"zeta": 0x4008, "alpha": 0x1000},
		},
		Shared:    true,
		PIC:       true,
		Needed:    []string{"/lib/libc.so", "/lib/libm.so"},
		DynRelocs: []DynReloc{{Addr: 0x4000, Kind: DynAbs, Symbol: "printf", Addend: -16}, {Addr: 0x4008, Kind: DynRelative, Addend: 0x1000}},
		LazySlots: []LazySlot{{Addr: 0x4010, Symbol: "qsort", Index: 3}},
		Exports:   []Export{{Name: "alpha", Addr: 0x1000}, {Name: "zeta", Addr: 0x4008}},
	}
}

// TestGoldenDigest pins the executable-file encoding across commits:
// the simulated filesystem stores these bytes and the native exec and
// dynamic-link baselines are priced by decoding them.
func TestGoldenDigest(t *testing.T) {
	const want = "9a8a90cb1fbd9874d1ae9240f8b3285d3777751fc27122852e88b0360b40a18e"
	enc, err := EncodeExec(goldenExec())
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(enc)
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Fatalf("image.EncodeExec digest changed (%d bytes):\n got %s\nwant %s", len(enc), got, want)
	}
}
