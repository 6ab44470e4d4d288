package obj

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// goldenObject sets every field of every record kind: all three
// sections, both symbol kinds and bindings, an undefined symbol, all
// three relocation kinds, a negative and a wide addend.
func goldenObject() *Object {
	text := make([]byte, 24)
	for i := range text {
		text[i] = byte(i * 7)
	}
	return &Object{
		Name:    "golden.o",
		Text:    text,
		Data:    []byte{0xde, 0xad, 0xbe, 0xef, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11},
		BSSSize: 40,
		Syms: []Symbol{
			{Name: "f", Kind: SymFunc, Bind: BindGlobal, Defined: true, Section: SecText, Size: 24},
			{Name: "tbl", Kind: SymData, Bind: BindLocal, Defined: true, Section: SecData, Offset: 8, Size: 8},
			{Name: "zero", Kind: SymData, Defined: true, Section: SecBSS, Offset: 16, Size: 24},
			{Name: "u"},
		},
		Relocs: []Reloc{
			{Section: SecText, Offset: 4, Symbol: "u", Kind: RelAbs64},
			{Section: SecData, Offset: 0, Symbol: "f", Kind: RelPC64, Addend: -8},
			{Section: SecText, Offset: 12, Symbol: "tbl", Kind: RelGotSlot, Addend: 1 << 40},
		},
	}
}

// TestGoldenDigest pins the ROF encoding across commits: object bytes
// feed the m-graph content keys, so a digest change here re-keys every
// cached image.
func TestGoldenDigest(t *testing.T) {
	const want = "8ca66852cba07f81e542a5ab3029b78b819e74c68b4ceeb375f543c917ef9c2a"
	enc, err := Encode(goldenObject())
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(enc)
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Fatalf("obj.Encode digest changed (%d bytes):\n got %s\nwant %s", len(enc), got, want)
	}
}
