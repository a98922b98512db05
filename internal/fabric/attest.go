package fabric

// Result attestation: every successful result a worker reports carries a
// canonical sha256 digest binding the payload to the exact cell it claims
// to answer — (campaign ID, job key, resolved config fingerprint, result
// bytes). The worker computes it over the bytes it is about to send; the
// coordinator recomputes it over the bytes it received against the spec it
// handed out. Anything in between — a bit-flipped wire, a stale worker
// binary resolving the config differently, a damaged journal record —
// breaks the digest and the result is rejected before it can reach the
// journal or a report.

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
)

// DigestPrefix versions the attestation format; a digest from a different
// scheme never verifies.
const DigestPrefix = "sha256:"

// ConfigFingerprint is the canonical digest of a cell's fully-resolved
// machine configuration (the JSON encoding, which Go marshals with a fixed
// field order). Two workers running "the same" cell from skewed binaries
// that resolve the config differently produce different fingerprints, so
// version skew surfaces as an attestation failure instead of a silently
// different report.
func ConfigFingerprint(spec JobSpec) string {
	b, err := json.Marshal(spec.Config)
	if err != nil {
		// config.Config is plain data; Marshal cannot fail on it. Guard
		// anyway: an unmarshalable config must never verify as anything.
		return DigestPrefix + "unmarshalable-config"
	}
	sum := sha256.Sum256(b)
	return DigestPrefix + hex.EncodeToString(sum[:])
}

// ResultDigest is the canonical attestation digest for one cell result.
// Fields are length-prefixed before hashing, so no concatenation of
// (campaign, key, fingerprint, payload) can collide with another split of
// the same bytes.
func ResultDigest(campaign string, spec JobSpec, result json.RawMessage) string {
	h := sha256.New()
	var n [8]byte
	field := func(b []byte) {
		binary.BigEndian.PutUint64(n[:], uint64(len(b)))
		h.Write(n[:])
		h.Write(b)
	}
	field([]byte(campaign))
	field([]byte(spec.Key))
	field([]byte(ConfigFingerprint(spec)))
	field(result)
	return DigestPrefix + hex.EncodeToString(h.Sum(nil))
}
