//go:build !wormcheck

package network

import "wormlan/internal/des"

// wormcheckEnabled gates the per-tick runtime invariant checker (see
// wormcheck_on.go).  In normal builds the constant-false guard lets the
// compiler delete the call site, so the hot path carries no overhead —
// the zero-alloc and determinism pins run with the tag off.
const wormcheckEnabled = false

func (f *Fabric) wormcheckTick(now des.Time) {}

func (f *Fabric) wormcheckRestDeclines(now, max des.Time) {}
