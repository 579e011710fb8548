package core

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzDecodeRequest feeds outside bytes — a stackd POST body — to
// every catalog experiment's decoder. Decoding must never panic; an
// accepted body must re-encode to a canonical fixed point (decoding the
// canonical bytes and encoding again yields the same bytes, so one
// request has one cache key); and an accepted spec must lie within the
// wire bounds. Seeds live in testdata/fuzz/FuzzDecodeRequest.
func FuzzDecodeRequest(f *testing.F) {
	exps := Experiments()
	f.Fuzz(func(t *testing.T, body []byte) {
		for _, e := range exps {
			req, err := e.DecodeRequest(body)
			if err != nil {
				continue
			}
			if err := req.Spec.checkWire(); err != nil {
				t.Fatalf("%s: accepted an out-of-bounds spec: %v", e.Name, err)
			}
			canonical, err := e.EncodeRequest(req)
			if err != nil {
				t.Fatalf("%s: accepted body does not encode: %v", e.Name, err)
			}
			again, err := e.DecodeRequest(canonical)
			if err != nil {
				t.Fatalf("%s: canonical bytes %s rejected: %v", e.Name, canonical, err)
			}
			re, err := e.EncodeRequest(again)
			if err != nil {
				t.Fatalf("%s: re-encoding %s: %v", e.Name, canonical, err)
			}
			if !bytes.Equal(re, canonical) {
				t.Fatalf("%s: encoding not a fixed point:\n%s\n%s", e.Name, canonical, re)
			}
		}
	})
}

// FuzzDecodeWireSpec feeds outside bytes — a campaign spec as a
// coordinator would send it — to DecodeWireSpec. Decoding must never
// panic, and decode → EncodeWire → decode must be stable: the same
// spec, encoded to the same bytes. Seeds live in
// testdata/fuzz/FuzzDecodeWireSpec.
func FuzzDecodeWireSpec(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw []byte) {
		spec, err := DecodeWireSpec(raw)
		if err != nil {
			return
		}
		if err := spec.checkWire(); err != nil {
			t.Fatalf("accepted an out-of-bounds spec: %v", err)
		}
		enc, err := spec.EncodeWire()
		if err != nil {
			t.Fatalf("accepted spec does not encode: %v", err)
		}
		back, err := DecodeWireSpec(enc)
		if err != nil {
			t.Fatalf("encoded bytes %s rejected: %v", enc, err)
		}
		if !reflect.DeepEqual(back, spec) {
			t.Fatalf("round trip mutated the spec:\nin:  %+v\nout: %+v", spec, back)
		}
		enc2, err := back.EncodeWire()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatalf("encoding not stable:\n%s\n%s", enc, enc2)
		}
	})
}
