package bitstream

import (
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/device"
)

// FuzzParse feeds arbitrary bytes to the three readers a loader runs on a
// .bit/.bin image: Parse (with an arbitrary frame width), Deserialize and
// Decompress. None may panic, and what each accepts stays bounded by its
// input: Deserialize yields one word per 4 bytes, a parsed layout has no
// more groups or commands than words, and Decompress yields at most
// maxRecLen words per 8-byte record (and never past maxDecodedWords).
// Decoded streams survive a Compress round trip. The seeds are the
// generated bitstreams of the paper PRMs on both paper devices, each with
// its RLE-compressed form, a truncated copy and a bit-flipped copy, and each
// input that has failed the target.
func FuzzParse(f *testing.F) {
	for _, row := range core.TableV {
		dev, err := device.Lookup(row.Device)
		if err != nil {
			f.Fatal(err)
		}
		res, err := core.NewPRRModel(dev).Estimate(row.Req)
		if err != nil {
			f.Fatal(err)
		}
		r := res.Org.Region
		data, err := Generate(dev, PRR{Row: r.Row, Col: r.Col, H: r.H, W: r.W}, 42)
		if err != nil {
			f.Fatal(err)
		}
		words, err := Deserialize(data)
		if err != nil {
			f.Fatal(err)
		}
		fw := dev.Params.FrameWords
		flipped := slices.Clone(data)
		flipped[len(flipped)/3] ^= 0x10
		f.Add(data, fw)
		f.Add(Compress(words), fw)
		f.Add(data[:len(data)/2], fw)
		f.Add(flipped, fw)
	}
	// Two maximal run records: 16 bytes that once decoded to 33.5M words.
	maxRun := []byte{recRun, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0}
	f.Add(slices.Concat(maxRun, maxRun), 0)
	f.Fuzz(func(t *testing.T, data []byte, frameWords int) {
		if l, err := Parse(data, frameWords); err == nil {
			if l.Words != len(data)/4 || len(l.Groups) > l.Words || len(l.Commands) > l.Words {
				t.Fatalf("%d bytes parsed to %d words, %d groups, %d commands",
					len(data), l.Words, len(l.Groups), len(l.Commands))
			}
		}
		if words, err := Deserialize(data); err == nil && 4*len(words) != len(data) {
			t.Fatalf("%d bytes deserialized to %d words", len(data), len(words))
		}
		words, err := Decompress(data)
		if err != nil {
			return
		}
		if 8*len(words) > maxRecLen*len(data) || len(words) > maxDecodedWords {
			t.Fatalf("%d bytes decompressed to %d words", len(data), len(words))
		}
		back, err := Decompress(Compress(words))
		if err != nil || !slices.Equal(back, words) {
			t.Fatalf("decoded words do not survive a Compress round trip (err %v)", err)
		}
	})
}
