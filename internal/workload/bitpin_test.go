package workload

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"io"
	"testing"

	"diestack/internal/trace"
)

// TestGenerateBitPins pins every benchmark's trace at scale 0.1 by the
// SHA-256 of its trace.Writer encoding: every id, dependency, address,
// PC, cpu, kind and repeat count. A change to how records are stored
// or merged must leave these alone. The traces are pinned twice: as
// Generate collects them, and streamed in paper order through one
// shared Blocks, so each trace after the first is generated into the
// blocks of the one before it.
func TestGenerateBitPins(t *testing.T) {
	want := map[string]string{
		"conj":   "667610bf76684f4ed2d42a3f9e45d21e1b7486dca5ef4079c9cb4f9da419512f",
		"dSym":   "0f094a96aabb1edaf2519d4a1837614110f6e700b10ab563878071c380480ffd",
		"gauss":  "81707d3144c4ae839b20c863ae9f9ac53a066d4f474c34c0e30fedb9efd1b000",
		"pcg":    "8b8d8aa3fc9eff754141377747b688257c818fd1a02e77a0701e9637738e644a",
		"sMVM":   "12c8654b66f00682ba97eb5e6d5cf12c1966e13a6e66353589bb5b296b5c90ef",
		"sSym":   "8675a29c4e5800aa985ffe47c2b7423874d7ff70d7c0e059b682e866cef2834a",
		"sTrans": "a438c9b9f35298fa5f35332076a0fb279d42117c05a46a55ef8bc6aa3e2e28db",
		"sAVDF":  "89b16c56d01cd74e4ef8bd8355fee41458d806d2beec750bb3ae91d212f81b3f",
		"sAVIF":  "70975a6a41c7aa5a8362de77da2fef2052a10d488c193a097b0127923bb2fc9b",
		"sUS":    "5bad1fd8053a765a7c56c5e5bd5e7999fe7c1b08e4366fb3b81b9de3acf44aee",
		"svd":    "a71124518c6078973e73fa75a1db120469860010a9acba8e9ed70ff16ac0840c",
		"svm":    "70887c97ae13f049b9531eca869ab09940b9b2fce74fc9d367ab04f863609556",
	}
	var free Blocks
	inputs := []struct {
		name string
		open func(b Benchmark) trace.Stream
	}{
		{"Generate", func(b Benchmark) trace.Stream { return trace.NewSliceStream(b.Generate(1, 0.1)) }},
		{"Stream with shared Blocks", func(b Benchmark) trace.Stream { return b.Stream(1, 0.1, &free) }},
	}
	for _, in := range inputs {
		for _, b := range All() {
			h := sha256.New()
			w := trace.NewWriter(h)
			src := in.open(b)
			n := 0
			for ; ; n++ {
				r, err := src.Next()
				if errors.Is(err, io.EOF) {
					break
				}
				if err != nil {
					t.Fatal(err)
				}
				if err := w.Write(r); err != nil {
					t.Fatal(err)
				}
			}
			if err := w.Flush(); err != nil {
				t.Fatal(err)
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != want[b.Name] {
				t.Errorf("%s, %s: trace digest %s, want %s (%d records)", in.name, b.Name, got, want[b.Name], n)
			}
		}
	}
}
