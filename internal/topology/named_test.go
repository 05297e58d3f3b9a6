package topology

import (
	"reflect"
	"testing"
)

// TestNamed: every published name builds the graph its direct builder call
// does, carries the geometry that builder produces, and takes the
// topology's own default for a zero delay.
func TestNamed(t *testing.T) {
	torus, tgeo := TorusWithGeom(8, 8, 1, 1)
	torus4, t4geo := TorusWithGeom(4, 4, 1, 7)
	shuf24, s24geo := BidirShufflenetWithGeom(2, 3, 1000)
	shuf64, s64geo := BidirShufflenetWithGeom(2, 4, 1)
	clos, cgeo := ClosWithGeom(8, 4, 8, 1)
	cases := []struct {
		name  string
		delay int64
		want  Net
	}{
		{"torus8x8", 0, Net{Graph: torus, Torus: tgeo}},
		{"torus4x4", 7, Net{Graph: torus4, Torus: t4geo}},
		{"shufflenet24", 0, Net{Graph: shuf24, Shuffle: s24geo}},
		{"shufflenet24", 5, Net{Graph: BidirShufflenet(2, 3, 5), Shuffle: s24geo}},
		{"shufflenet64", 0, Net{Graph: shuf64, Shuffle: s64geo}},
		{"clos8x4", 0, Net{Graph: clos, Clos: cgeo}},
		{"fullmesh8x4", 0, Net{Graph: FullMesh(8, 4, 1)}},
		{"fullmesh8x8", 3, Net{Graph: FullMesh(8, 8, 3)}},
		{"myrinet4", 0, Net{Graph: Myrinet4()}},
		{"star:5", 0, Net{Graph: Star(5)}},
		{"line:4", 2, Net{Graph: Line(4, 2)}},
		{"ring:6", 0, Net{Graph: Ring(6, 1)}},
	}
	for _, c := range cases {
		got, err := Named(c.name, c.delay)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("Named(%q, %d) differs from the direct builder call", c.name, c.delay)
		}
	}
	for _, bad := range []string{"", "torus", "line:x", "mesh:4", "line:0", "line:-2", "ring:0", "ring:2"} {
		if _, err := Named(bad, 0); err == nil {
			t.Errorf("Named(%q) accepted", bad)
		}
	}
	for _, name := range []string{"torus4x4", "ring:3"} {
		if _, err := Named(name, -3); err == nil {
			t.Errorf("Named(%q, -3) accepted a negative delay", name)
		}
	}
}
