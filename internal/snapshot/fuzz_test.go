package snapshot

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math/rand"
	"reflect"
	"testing"
)

// withChecksum frames payload under magic with a valid CRC-32C, so fuzzed
// mutations get past the checksum and reach the structural parser.
func withChecksum(magic, payload []byte) []byte {
	b := append([]byte(nil), magic...)
	b = binary.LittleEndian.AppendUint32(b, crc32.Checksum(payload, crcTable))
	return append(b, payload...)
}

// addBlobSeeds adds each encoded blob, its payload (which the fuzz body
// re-frames), and the truncations and bit flips the corruption tests use.
func addBlobSeeds(f *testing.F, magic []byte, blobs ...[]byte) {
	for _, blob := range blobs {
		f.Add(blob)
		f.Add(blob[len(magic)+4:])
		f.Add(blob[:len(blob)-3])
		f.Add(blob[:len(magic)+2])
		for i := 0; i < 4; i++ {
			mut := append([]byte(nil), blob...)
			bit := (i*7 + 1) % (len(mut) * 8)
			mut[bit/8] ^= 1 << (bit % 8)
			f.Add(mut)
		}
	}
	f.Add([]byte{})
	f.Add([]byte("not a snapshot at all"))
}

// FuzzDecodeSnapshot: Decode never panics, every failure is
// ErrCorruptSnapshot, and whatever decodes re-encodes to bytes that decode
// to an equal snapshot. Varints and bools are not canonical on input, so
// byte identity with the fuzzed input is not required.
func FuzzDecodeSnapshot(f *testing.F) {
	packed, err := MergeChain([]*Snapshot{mkSnap(2, 0), mkSnap(3, 2), mkSnap(4, 3)})
	if err != nil {
		f.Fatal(err)
	}
	addBlobSeeds(f, magic,
		mkSnap(3, 2).Encode(),
		mkSnap(1, 0).Encode(),
		packed.Encode(),
		(&Snapshot{Epoch: 3, Nodes: []NodeState{
			{ID: 0, Name: "src", State: []byte("pos")},
			{ID: 1, Name: "agg", State: nil},
			{ID: 2, Name: "sink", State: []byte{1, 2, 3}},
		}}).Encode(),
		(&Snapshot{Epoch: 1}).Encode(),
	)
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, in := range [][]byte{data, withChecksum(magic, data)} {
			s, err := Decode(in)
			if err != nil {
				if !errors.Is(err, ErrCorruptSnapshot) {
					t.Fatalf("untyped decode error: %v", err)
				}
				continue
			}
			back, err := Decode(s.Encode())
			if err != nil {
				t.Fatalf("re-encoded snapshot does not decode: %v", err)
			}
			if !reflect.DeepEqual(back, s) {
				t.Fatalf("round trip changed snapshot:\n%+v\n%+v", s, back)
			}
		}
	})
}

// FuzzDecodeDistManifest is FuzzDecodeSnapshot for committed manifests.
func FuzzDecodeDistManifest(f *testing.F) {
	rng := rand.New(rand.NewSource(13))
	var blobs [][]byte
	for i := 0; i < 6; i++ {
		m := &DistManifest{Epoch: 1 + rng.Int63n(1<<40)}
		for p := 0; p < i%4; p++ {
			m.Parts = append(m.Parts, DistPart{
				Part: randString(rng, 16), Epoch: m.Epoch, Chain: randString(rng, 24),
			})
		}
		blobs = append(blobs, m.Encode())
	}
	blobs = append(blobs, (&DistManifest{Epoch: 9, Parts: []DistPart{
		{Part: "coord", Epoch: 9, Chain: IDFor(9, 8)},
		{Part: "follower", Epoch: 9, Chain: IDFor(9, 0)},
	}}).Encode())
	addBlobSeeds(f, distMagic, blobs...)
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, in := range [][]byte{data, withChecksum(distMagic, data)} {
			m, err := DecodeDistManifest(in)
			if err != nil {
				if !errors.Is(err, ErrCorruptSnapshot) {
					t.Fatalf("untyped decode error: %v", err)
				}
				continue
			}
			back, err := DecodeDistManifest(m.Encode())
			if err != nil {
				t.Fatalf("re-encoded manifest does not decode: %v", err)
			}
			if !reflect.DeepEqual(back, m) {
				t.Fatalf("round trip changed manifest:\n%+v\n%+v", m, back)
			}
		}
	})
}
