package topology

import "fmt"

// Net is a graph together with whichever routing geometry its builder
// produced.  The geometry-consuming routing schemes (internal/vcroute)
// read the field they need; a graph from ParseConfig or a geometry-free
// builder travels as Net{Graph: g}.
type Net struct {
	Graph   *Graph
	Torus   *TorusGeom
	Clos    *ClosGeom
	Shuffle *ShuffleGeom
}

// Named builds the fabric a CLI flag, storm spec or figure variant names.
// It is the one name-to-graph table: torus8x8, torus4x4, shufflenet24 (the
// paper's Figure 11 instance), shufflenet64, clos8x4, fullmesh8x4,
// fullmesh8x8, myrinet4, star:N, line:N, ring:N.  delay is the inter-switch
// link delay in byte-times; 0 takes the topology's own default — 1000 for
// shufflenet24 (the paper's long-haul pipes), 1 everywhere else.  A
// negative delay or a size below its builder's floor is an error, not the
// builder's panic.
func Named(name string, delay int64) (Net, error) {
	var n Net
	if delay < 0 {
		return n, fmt.Errorf("topology: negative link delay %d", delay)
	}
	var size int
	sized := func(format string) bool {
		_, err := fmt.Sscanf(name, format, &size)
		return err == nil
	}
	switch {
	case sized("line:%d") && size < 1, sized("ring:%d") && size < 3:
		return n, fmt.Errorf("topology: %q is too small (line:N needs N >= 1, ring:N needs N >= 3)", name)
	case name == "torus8x8":
		n.Graph, n.Torus = TorusWithGeom(8, 8, 1, delay)
	case name == "torus4x4":
		n.Graph, n.Torus = TorusWithGeom(4, 4, 1, delay)
	case name == "shufflenet24":
		if delay == 0 {
			delay = 1000
		}
		n.Graph, n.Shuffle = BidirShufflenetWithGeom(2, 3, delay)
	case name == "shufflenet64":
		n.Graph, n.Shuffle = BidirShufflenetWithGeom(2, 4, delay)
	case name == "clos8x4":
		n.Graph, n.Clos = ClosWithGeom(8, 4, 8, delay)
	case name == "fullmesh8x4":
		n.Graph = FullMesh(8, 4, delay)
	case name == "fullmesh8x8":
		n.Graph = FullMesh(8, 8, delay)
	case name == "myrinet4":
		n.Graph = Myrinet4()
	case sized("star:%d"):
		n.Graph = Star(size)
	case sized("line:%d"):
		n.Graph = Line(size, delay)
	case sized("ring:%d"):
		n.Graph = Ring(size, delay)
	default:
		return n, fmt.Errorf("topology: unknown topology %q", name)
	}
	return n, nil
}
