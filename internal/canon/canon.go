// Package canon is the repo's canonical JSON codec: the single
// serialization used wherever two processes — or two points in time —
// must agree byte-for-byte on what a specification says. The stackd
// simulation service hashes a canonical experiment request into its
// result-cache key through this package, so "equal specs" always
// means "equal bytes" means "equal hashes".
//
// Canonical form is compact JSON of a tagged Go struct. Determinism
// rests on two properties the codec pins down:
//
//   - Stable field order. encoding/json emits struct fields in
//     declaration order and sorts map keys, so the same value always
//     encodes to the same bytes. Wire structs must not contain
//     anything whose encoding is unstable (channels, funcs, NaN
//     floats); Marshal surfaces those as errors rather than producing
//     bytes that cannot round-trip.
//
//   - Omitted defaults. Wire structs tag defaultable fields
//     `omitempty`, so a zero-valued knob and an absent knob are the
//     same bytes. That keeps hashes stable when new optional fields
//     are introduced, and keeps old decoders (which reject unknown
//     fields) interoperable with new encoders that have nothing new
//     to say.
//
// Decoding is strict: unknown fields are rejected, so version skew
// between an encoder and a decoder fails loudly instead of silently
// dropping a parameter.
package canon

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
)

// Marshal encodes v in canonical form: compact JSON, struct fields in
// declaration order, map keys sorted. Equal values encode to equal
// bytes on every platform.
func Marshal(v any) ([]byte, error) {
	raw, err := json.Marshal(v)
	if err != nil {
		return nil, fmt.Errorf("canon: encoding %T: %w", v, err)
	}
	return raw, nil
}

// Unmarshal decodes canonical bytes into v, rejecting unknown fields so
// a decoder that is older than its encoder fails loudly instead of
// silently running with a dropped parameter.
func Unmarshal(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("canon: decoding into %T: %w", v, err)
	}
	// A canonical payload is exactly one JSON value.
	if dec.More() {
		return fmt.Errorf("canon: decoding into %T: trailing data", v)
	}
	return nil
}

// Hash returns the hex SHA-256 of v's canonical encoding — the cache
// and fencing key for the value.
func Hash(v any) (string, error) {
	raw, err := Marshal(v)
	if err != nil {
		return "", err
	}
	return HashBytes(raw), nil
}

// HashBytes returns the hex SHA-256 of an already-canonical encoding.
func HashBytes(raw []byte) string {
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:])
}
