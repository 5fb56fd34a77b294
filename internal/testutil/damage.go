package testutil

// Damage returns a copy of image with one fault in it, the damage model of
// the recovery fuzzers. op, taken mod 3, picks the fault and pos, taken mod
// len(image), where it lands: 0 flips the byte at pos (xor n%255+1), 1
// truncates the image at pos, 2 zeroes the bytes from pos through pos+n,
// clipped to the image. first is the offset of the first damaged byte: pos
// for a flip or a truncation, the first byte the zero fill changed, or
// len(image) if it changed none.
func Damage(image []byte, op uint8, pos uint16, n uint8) (damaged []byte, first int) {
	at := int(pos) % len(image)
	damaged, first = append([]byte(nil), image...), at
	switch op % 3 {
	case 0:
		damaged[at] ^= n%255 + 1
	case 1:
		damaged = damaged[:at]
	case 2:
		first = len(image)
		for i := min(at+int(n), len(image)-1); i >= at; i-- {
			if damaged[i] != 0 {
				damaged[i], first = 0, i
			}
		}
	}
	return damaged, first
}
