package sweep

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
)

// identityVersion is folded into every hash.  Bump it to re-derive all
// keys and seeds (e.g. if the canonical config encoding changes).
const identityVersion = "wormlan/sweep/v1"

// PointIdentity derives a point's stable identity: a 128-bit key
// and an independent 64-bit seed, both SHA-256 digests of
// (version, grid name, base seed, canonical JSON of config).
//
// Properties the tests pin:
//   - Stable across Go versions and platforms: SHA-256 is fixed and
//     encoding/json is deterministic for structs (field order) and maps
//     (sorted keys); golden values guard against drift.
//   - Collision-free in practice: distinct configs in a grid get distinct
//     keys and seeds (128/64 random-looking bits).
//   - Independent: the seed bytes are disjoint from the key bytes, so
//     knowing one point's rows reveals nothing about another's stream.
func PointIdentity(grid string, baseSeed uint64, config any) (key string, seed uint64, err error) {
	blob, err := json.Marshal(config)
	if err != nil {
		return "", 0, fmt.Errorf("sweep: config not canonicalizable: %w", err)
	}
	h := sha256.New()
	h.Write([]byte(identityVersion))
	h.Write([]byte{0})
	h.Write([]byte(grid))
	h.Write([]byte{0})
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], baseSeed)
	h.Write(b[:])
	h.Write(blob)
	sum := h.Sum(nil)
	return hex.EncodeToString(sum[:16]), binary.BigEndian.Uint64(sum[16:24]), nil
}
