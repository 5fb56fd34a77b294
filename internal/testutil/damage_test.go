package testutil

import (
	"bytes"
	"testing"
)

// TestDamage pins the three faults and the first damaged byte of each, the
// image left as it was.
func TestDamage(t *testing.T) {
	image := []byte{1, 2, 0, 0, 5, 6}
	for _, c := range []struct {
		name      string
		op        uint8
		pos       uint16
		n         uint8
		want      []byte
		wantFirst int
	}{
		{"flip", 0, 1, 0, []byte{1, 3, 0, 0, 5, 6}, 1},
		{"flip by 255 is by 1", 3, 7, 254, []byte{1, 2 ^ 255, 0, 0, 5, 6}, 1},
		{"truncate", 1, 4, 9, []byte{1, 2, 0, 0}, 4},
		{"zero past zeros", 2, 2, 2, []byte{1, 2, 0, 0, 0, 6}, 4},
		{"zero clipped", 2, 5, 200, []byte{1, 2, 0, 0, 5, 0}, 5},
		{"zero of zeros", 2, 2, 1, image, len(image)},
	} {
		got, first := Damage(image, c.op, c.pos, c.n)
		if !bytes.Equal(got, c.want) || first != c.wantFirst {
			t.Errorf("%s: %v, first %d; want %v, first %d", c.name, got, first, c.want, c.wantFirst)
		}
	}
	if !bytes.Equal(image, []byte{1, 2, 0, 0, 5, 6}) {
		t.Fatalf("the image was changed: %v", image)
	}
}
