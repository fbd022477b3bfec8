package bitstream

import (
	"encoding/binary"
	"fmt"
)

// Compression: FaRM-style run-length coding of configuration words. Real
// partial bitstreams compress well because unused frames repeat filler
// words; the FaRM controller (Duhem et al., §II) exploits this to cut the
// media-side transfer volume. Compress implements the codec so the FaRM
// estimator's CompressionRatio can be measured instead of assumed.
//
// Encoding: a stream of records. A literal record is {0x00, n(3 bytes),
// n words}; a run record is {0x01, count(3 bytes), word}. Runs shorter than
// runThreshold stay literal.

const (
	recLiteral = 0x00
	recRun     = 0x01
	// runThreshold is the minimum run length worth a run record (a run
	// record costs 8 bytes; 3 repeated words cost 12 literal bytes).
	runThreshold = 3
	maxRecLen    = 0xFFFFFF
	// maxDecodedWords bounds what Decompress materializes. It is above the
	// full configuration of the largest device in the catalog (XC7K325T,
	// about 2.4M words), so every partial bitstream decodes, while a forged
	// stream of 8-byte run records cannot ask for gigabytes.
	maxDecodedWords = 1 << 22
)

// Compress run-length encodes configuration words.
func Compress(words []uint32) []byte {
	var out []byte
	emitLiteral := func(lit []uint32) {
		for len(lit) > 0 {
			n := len(lit)
			if n > maxRecLen {
				n = maxRecLen
			}
			out = append(out, recLiteral, byte(n>>16), byte(n>>8), byte(n))
			for _, w := range lit[:n] {
				out = binary.BigEndian.AppendUint32(out, w)
			}
			lit = lit[n:]
		}
	}
	var lit []uint32
	for i := 0; i < len(words); {
		j := i + 1
		for j < len(words) && words[j] == words[i] && j-i < maxRecLen {
			j++
		}
		if run := j - i; run >= runThreshold {
			emitLiteral(lit)
			lit = lit[:0]
			out = append(out, recRun, byte(run>>16), byte(run>>8), byte(run))
			out = binary.BigEndian.AppendUint32(out, words[i])
		} else {
			lit = append(lit, words[i:j]...)
		}
		i = j
	}
	emitLiteral(lit)
	return out
}

// Decompress reverses Compress for streams of at most maxDecodedWords words.
func Decompress(data []byte) ([]uint32, error) {
	var words []uint32
	for i := 0; i < len(data); {
		if i+4 > len(data) {
			return nil, fmt.Errorf("bitstream: truncated record header at byte %d", i)
		}
		kind := data[i]
		n := int(data[i+1])<<16 | int(data[i+2])<<8 | int(data[i+3])
		if len(words)+n > maxDecodedWords {
			return nil, fmt.Errorf("bitstream: record at byte %d decodes past %d words", i, maxDecodedWords)
		}
		i += 4
		switch kind {
		case recLiteral:
			if i+4*n > len(data) {
				return nil, fmt.Errorf("bitstream: truncated literal record at byte %d", i)
			}
			for k := 0; k < n; k++ {
				words = append(words, binary.BigEndian.Uint32(data[i+4*k:]))
			}
			i += 4 * n
		case recRun:
			if i+4 > len(data) {
				return nil, fmt.Errorf("bitstream: truncated run record at byte %d", i)
			}
			w := binary.BigEndian.Uint32(data[i:])
			for k := 0; k < n; k++ {
				words = append(words, w)
			}
			i += 4
		default:
			return nil, fmt.Errorf("bitstream: unknown record kind %#x at byte %d", kind, i-4)
		}
	}
	return words, nil
}

// CompressionRatio returns compressed bytes over raw bytes for a word
// stream (1.0 = incompressible, smaller is better), the quantity the FaRM
// reconfiguration-time model consumes.
func CompressionRatio(words []uint32) float64 {
	if len(words) == 0 {
		return 1
	}
	return float64(len(Compress(words))) / float64(4*len(words))
}
