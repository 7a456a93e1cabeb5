package durable

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// This file implements the two block codecs of the v2 segment format.
// Both are dependency-free and tuned for the shapes event columns
// actually take:
//
//   - lz: a byte-oriented LZ77 codec in the LZ4 family (greedy hash
//     matcher, 64 KiB window, control-byte token stream). Event columns
//     are full of short repeats — interned entity IDs, agent IDs, and
//     op codes recur within a block — so a fast match-copy codec
//     shrinks them severalfold at memcpy-class decode speed.
//   - delta: zigzag-varint deltas for the monotone u64 columns (event
//     ID, per-agent sequence), which compress to ~1 byte per value.
//
// Codec IDs are stored per block in the segment's block directory.
const (
	CodecRaw   uint8 = 0 // verbatim bytes
	CodecLZ    uint8 = 1 // lz token stream
	CodecDelta uint8 = 2 // zigzag-varint deltas over u64 values
)

// ErrCorrupt is the sentinel wrapped by every integrity failure of
// the on-disk format: segment checksum mismatches, malformed token
// streams, impossible directory entries, bad or unsupported manifests.
// errors.Is(err, ErrCorrupt) distinguishes bad bytes from I/O errors.
var ErrCorrupt = errors.New("durable: corrupt data")

// corruptf builds a typed corruption error.
func corruptf(format string, args ...any) error {
	return fmt.Errorf("%w: "+format, append([]any{ErrCorrupt}, args...)...)
}

// lz token stream: a sequence of tokens, each introduced by one control
// byte c. c < 0x80 is a literal run of c+1 bytes (1..128), which follow
// verbatim. c >= 0x80 is a match of length (c&0x7F)+lzMinMatch
// (4..131) copied from `distance` bytes back in the output, with the
// u16 little-endian distance (1..65535) following the control byte.
// Matches may overlap their output (distance < length), which is what
// encodes runs.
const (
	lzMinMatch  = 4
	lzMaxMatch  = 127 + lzMinMatch
	lzMaxLit    = 128
	lzWindow    = 1 << 16
	lzHashBits  = 14
	lzHashShift = 32 - lzHashBits
)

func lzHash(v uint32) uint32 {
	return (v * 2654435761) >> lzHashShift
}

// lzCompress encodes src and returns the token stream, or nil when the
// encoded form would not be smaller than src (the caller then stores
// the block raw). Empty input encodes to nil.
func lzCompress(src []byte) []byte {
	n := len(src)
	if n < lzMinMatch+1 {
		return nil
	}
	var table [1 << lzHashBits]int32
	for i := range table {
		table[i] = -1
	}
	// A compressed block must save at least one byte to be worth the
	// codec dispatch; give up as soon as dst can no longer win.
	dst := make([]byte, 0, n-1)
	limit := n - 1

	emitLiterals := func(lit []byte) bool {
		for len(lit) > 0 {
			run := len(lit)
			if run > lzMaxLit {
				run = lzMaxLit
			}
			if len(dst)+1+run > limit {
				return false
			}
			dst = append(dst, byte(run-1))
			dst = append(dst, lit[:run]...)
			lit = lit[run:]
		}
		return true
	}

	litStart := 0
	i := 0
	for i+lzMinMatch <= n {
		h := lzHash(binary.LittleEndian.Uint32(src[i:]))
		cand := int(table[h])
		table[h] = int32(i)
		if cand < 0 || i-cand >= lzWindow ||
			binary.LittleEndian.Uint32(src[cand:]) != binary.LittleEndian.Uint32(src[i:]) {
			i++
			continue
		}
		// extend the match
		mlen := lzMinMatch
		for i+mlen < n && mlen < lzMaxMatch && src[cand+mlen] == src[i+mlen] {
			mlen++
		}
		if !emitLiterals(src[litStart:i]) {
			return nil
		}
		if len(dst)+3 > limit {
			return nil
		}
		dst = append(dst, 0x80|byte(mlen-lzMinMatch))
		dst = binary.LittleEndian.AppendUint16(dst, uint16(i-cand))
		// seed the table inside the match so adjacent repeats chain
		for j := i + 1; j < i+mlen && j+lzMinMatch <= n; j += 2 {
			table[lzHash(binary.LittleEndian.Uint32(src[j:]))] = int32(j)
		}
		i += mlen
		litStart = i
	}
	if !emitLiterals(src[litStart:]) {
		return nil
	}
	return dst
}

// lzDecompress decodes a token stream produced by lzCompress into dst
// (which must have capacity for rawLen; its length is set to rawLen on
// success). Every read and copy is bounds-checked: corrupt input
// returns a typed error, never panics or over-reads.
func lzDecompress(dst, src []byte, rawLen int) ([]byte, error) {
	dst = dst[:0]
	for s := 0; s < len(src); {
		c := src[s]
		s++
		if c < 0x80 {
			run := int(c) + 1
			if s+run > len(src) || len(dst)+run > rawLen {
				return nil, corruptf("lz literal run overflows block")
			}
			dst = append(dst, src[s:s+run]...)
			s += run
			continue
		}
		mlen := int(c&0x7F) + lzMinMatch
		if s+2 > len(src) {
			return nil, corruptf("lz match truncated")
		}
		dist := int(binary.LittleEndian.Uint16(src[s:]))
		s += 2
		if dist == 0 || dist > len(dst) || len(dst)+mlen > rawLen {
			return nil, corruptf("lz match distance %d at output %d", dist, len(dst))
		}
		// byte-wise copy: overlapping matches (dist < mlen) must see
		// the bytes they just produced
		pos := len(dst) - dist
		for k := 0; k < mlen; k++ {
			dst = append(dst, dst[pos+k])
		}
	}
	if len(dst) != rawLen {
		return nil, corruptf("lz block decoded to %d bytes, want %d", len(dst), rawLen)
	}
	return dst, nil
}

// deltaEncode encodes src — little-endian u64 values — as the first
// value (uvarint) followed by zigzag-varint deltas. Returns nil when
// the encoding would not be smaller, or when src is not a whole number
// of u64s.
func deltaEncode(src []byte) []byte {
	if len(src) == 0 || len(src)%8 != 0 {
		return nil
	}
	dst := make([]byte, 0, len(src)/2)
	prev := binary.LittleEndian.Uint64(src)
	dst = binary.AppendUvarint(dst, prev)
	for off := 8; off < len(src); off += 8 {
		v := binary.LittleEndian.Uint64(src[off:])
		d := int64(v - prev)
		dst = binary.AppendVarint(dst, d)
		prev = v
		if len(dst) >= len(src) {
			return nil
		}
	}
	if len(dst) >= len(src) {
		return nil
	}
	return dst
}

// deltaDecode reverses deltaEncode into dst (capacity >= rawLen).
func deltaDecode(dst, src []byte, rawLen int) ([]byte, error) {
	if rawLen%8 != 0 {
		return nil, corruptf("delta block raw length %d not a multiple of 8", rawLen)
	}
	dst = dst[:0]
	v, s := binary.Uvarint(src)
	if s <= 0 {
		return nil, corruptf("delta block truncated")
	}
	dst = binary.LittleEndian.AppendUint64(dst, v)
	for s < len(src) {
		if len(dst) >= rawLen {
			return nil, corruptf("delta block overflows raw length %d", rawLen)
		}
		d, k := binary.Varint(src[s:])
		if k <= 0 {
			return nil, corruptf("delta block truncated")
		}
		s += k
		v += uint64(d)
		dst = binary.LittleEndian.AppendUint64(dst, v)
	}
	if len(dst) != rawLen {
		return nil, corruptf("delta block decoded to %d bytes, want %d", len(dst), rawLen)
	}
	return dst, nil
}
