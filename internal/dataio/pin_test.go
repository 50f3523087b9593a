package dataio

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"github.com/dcslib/dcs/internal/datagen"
	"github.com/dcslib/dcs/internal/graph"
)

// v2Pins are the SHA-256 digests of the v2 encoding of fixed graphs. They
// pin the on-disk bytes themselves: a change to the layout, the padding,
// the header fields or the checksums fails here even when every reader
// still round-trips.
var v2Pins = []struct {
	name   string
	graph  func() *graph.Graph
	sha256 string
}{
	{"empty", func() *graph.Graph { return graph.NewBuilder(0).Build() },
		"5245dfd274a70540f389115caf37e16c0ffafeb8633009e63be39b45dd59330a"},
	{"view", fixtureView,
		"4ca616d5eeaa2a5613f2e21b82ca0652c1dcbe7b297a9210a6cb98f8bf122ef7"},
	{"random-n40", func() *graph.Graph { return randomGraph(rand.New(rand.NewSource(3)), 40) },
		"57140ed8af2cca09fa426bdb616115ba687aac7b221f76761774c757d45b2410"},
	{"coauthor-gd-n2000", func() *graph.Graph {
		d := datagen.CoauthorPair(datagen.CoauthorConfig{Seed: 7, N: 2000})
		return graph.Difference(d.G1, d.G2)
	}, "7eaf5300d9732af5d9a47ad27a359d8d70a1dda52a6068ad59626f92c2b852dd"},
}

// TestBinaryV2BytesPinned hashes what WriteBinaryV2 and WriteBinaryV2File
// write for each pinned graph; both must give the committed digest.
func TestBinaryV2BytesPinned(t *testing.T) {
	dir := t.TempDir()
	for _, p := range v2Pins {
		g := p.graph()
		var buf bytes.Buffer
		if err := WriteBinaryV2(&buf, g); err != nil {
			t.Fatalf("%s: WriteBinaryV2: %v", p.name, err)
		}
		path := filepath.Join(dir, p.name+BinaryExt)
		if err := WriteBinaryV2File(path, g); err != nil {
			t.Fatalf("%s: WriteBinaryV2File: %v", p.name, err)
		}
		onDisk, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for label, b := range map[string][]byte{"WriteBinaryV2": buf.Bytes(), "WriteBinaryV2File": onDisk} {
			sum := sha256.Sum256(b)
			if got := hex.EncodeToString(sum[:]); got != p.sha256 {
				t.Errorf("%s: %s wrote %d bytes hashing to %s, want %s", p.name, label, len(b), got, p.sha256)
			}
		}
	}
}
