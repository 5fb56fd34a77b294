package fsys

import (
	"go/build"
	"path/filepath"
	"slices"
	"testing"
)

// TestDurableLayersDoNotImportOS: the commitlog, the object store and the
// segment store reach the disk only through OS, so a test can fail any of
// their file operations.
func TestDurableLayersDoNotImportOS(t *testing.T) {
	for _, dir := range []string{"../wal", "../objstore", "../store/persist"} {
		pkg, err := build.ImportDir(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		if slices.Contains(pkg.Imports, "os") {
			t.Errorf("%s imports os: route its file operations through fsys.OS", dir)
		}
	}
}

// TestOSFailedOpenIsNilFile: a failed open returns a nil File, not a nil
// *os.File inside the interface.
func TestOSFailedOpenIsNilFile(t *testing.T) {
	f, err := OS.Open(filepath.Join(t.TempDir(), "missing"))
	if err == nil || f != nil {
		t.Fatalf("Open of a missing file = %v, %v; want a nil File and an error", f, err)
	}
}
