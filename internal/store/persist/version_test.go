package persist

import (
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestOldSegmentsRejectedClearly pins the upgrade story: a file of codec
// v1, v2, v3 or v4 (old header magic) fails OpenSegment with ErrVersion
// and a message naming its version, never a decode panic or a silent skip
// — and so does a store directory holding one.
func TestOldSegmentsRejectedClearly(t *testing.T) {
	dir := t.TempDir()
	for v := 1; v <= 4; v++ {
		file := []byte{'H', 'P', 'S', 'E', 'G', '0', '0', byte('0' + v)}
		file = append(file, make([]byte, 64)...)
		var tail [trailerLen]byte
		binary.LittleEndian.PutUint32(tail[0:4], 8)
		copy(tail[8:], []byte{'H', 'P', 'S', 'E', 'G', 'F', 'T', byte('0' + v)})
		file = append(file, tail[:]...)
		path := filepath.Join(dir, string(rune('0'+v))+".seg")
		if err := os.WriteFile(path, file, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := OpenSegment(path)
		if !errors.Is(err, ErrVersion) || !strings.Contains(err.Error(), "codec v"+string(rune('0'+v))) {
			t.Fatalf("v%d segment open: %v, want ErrVersion naming the version", v, err)
		}
	}
	if _, err := OpenStore(dir); !errors.Is(err, ErrVersion) {
		t.Fatalf("OpenStore over a directory of old segments: %v, want ErrVersion", err)
	}
}
