package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
)

// PortByte makes route.EncodeVCPort/DecodeVCPort the single authority for
// the vc<<6|port route-byte packing.  The encoding's bit layout (2 lane
// bits over 6 port bits, marker bytes 0xFE/0xFF excluded) is a wire
// contract; a second hand-rolled pack or unpack site is a latent
// divergence the moment the layout ever moves — the same "packet
// composition has a single authority" rule ROADMAP item 4 applies to the
// future wire codec.
//
// In deterministic packages other than internal/route itself, the
// analyzer flags bit arithmetic in the encoding's shape applied to byte
// (uint8) operands:
//
//   - x << 6 and x >> 6 (lane insert / extract, also via route.VCShift),
//   - x & 0x3f (port mask, also via route.MaxVCPort),
//   - x & 0xc0 (lane mask).
//
// Only byte-typed operands are considered: int-typed shift-by-6 bitset
// math (64-entry words) is everywhere in the kernel and is not a route
// byte.  There is deliberately no escape annotation — call the codec.
var PortByte = &Analyzer{
	Name:   "portbyte",
	Doc:    "flags hand-rolled vc<<6|port route-byte packing outside internal/route",
	Scope:  deterministicScope,
	Exempt: "internal/route",
	Run:    runPortByte,
}

func runPortByte(p *Pass) error {
	p.walk(func(n ast.Node) bool {
		be, ok := n.(*ast.BinaryExpr)
		if !ok {
			return true
		}
		switch be.Op {
		case token.SHL, token.SHR:
			if isByteExpr(p, be.X) && constUintValue(p, be.Y) == 6 {
				verb := "packs a VC lane into"
				if be.Op == token.SHR {
					verb = "extracts the VC lane from"
				}
				p.Reportf(be.Pos(), "shift by 6 on a byte %s a route byte by hand: route.EncodeVCPort/DecodeVCPort is the single encoding authority", verb)
			}
		case token.AND:
			x, y := be.X, be.Y
			if !isByteExpr(p, x) {
				x, y = y, x
			}
			if !isByteExpr(p, x) {
				return true
			}
			switch constUintValue(p, y) {
			case 0x3f:
				p.Reportf(be.Pos(), "mask 0x3f on a byte extracts the port from a route byte by hand: route.DecodeVCPort is the single encoding authority")
			case 0xc0:
				p.Reportf(be.Pos(), "mask 0xc0 on a byte extracts the VC lane bits by hand: route.DecodeVCPort is the single encoding authority")
			}
		}
		return true
	})
	return nil
}

// isByteExpr reports whether e's static type is byte-sized unsigned
// (uint8 or a named type over it) — the carrier type of route bytes.
func isByteExpr(p *Pass, e ast.Expr) bool {
	t := p.TypesInfo.TypeOf(e)
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Kind() == types.Uint8
}

// constUintValue returns e's constant integer value, or -1 if e is not an
// integer constant.
func constUintValue(p *Pass, e ast.Expr) int64 {
	tv, ok := p.TypesInfo.Types[e]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.Int {
		return -1
	}
	v, ok := constant.Int64Val(tv.Value)
	if !ok {
		return -1
	}
	return v
}
