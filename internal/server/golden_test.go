package server_test

import (
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"testing"

	"omos/internal/workload"
)

// TestGoldenDigest pins the identities a workload world computes: the
// content hash of every namespace path, and the key, content key, bind
// key and shape key of every image instantiating /bin/ls and
// /bin/codegen publishes.  A store's records and persisted shapes are
// found under these identities, so a digest change means an existing
// store no longer serves a warm restart: make it only on purpose.
func TestGoldenDigest(t *testing.T) {
	const want = "60ca63df9fa91c2e95f1ffc844b6b0664925c40573e159bcfa3f283f15a4f821"
	w, err := workload.SetupOMOS(oracleCG)
	if err != nil {
		t.Fatal(err)
	}
	for _, prog := range []string{"/bin/ls", "/bin/codegen"} {
		if _, err := w.Srv.Instantiate(prog, nil); err != nil {
			t.Fatalf("%s: %v", prog, err)
		}
	}
	ids, err := w.Srv.Identities()
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256([]byte(strings.Join(ids, "\n")))
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Errorf("identity digest %s, want %s; identities:\n%s", got, want, strings.Join(ids, "\n"))
	}
}
