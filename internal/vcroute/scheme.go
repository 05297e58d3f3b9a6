package vcroute

import (
	"fmt"
	"sort"
	"strings"

	"wormlan/internal/topology"
	"wormlan/internal/updown"
)

// Scheme is one unicast routing discipline: a table builder plus what the
// fabric must provide for its tables to be legal.  The registry below is
// the only place a scheme is known by name — sim, faulttest, core and the
// CLIs look a Scheme up and read its fields.  Adding a scheme is one
// literal here plus its builder.
type Scheme struct {
	Name string
	// MinLanes is the fewest virtual channels per link the scheme's
	// deadlock-freedom argument needs; 0 means VC-free (any lane count).
	MinLanes int
	// VCEncoded: route bytes carry lane ids (route.EncodeVCPort), so the
	// fabric must run with VCHeaders.
	VCEncoded bool
	// SwitchMC: tree-restricted switch-level replication works.  It needs
	// the routes to BE the up/down spanning tree, so only up/down has it:
	// a switch-level run's table is ud.NewTable(true), and switch-level
	// unicast rides it.
	SwitchMC bool
	// Adaptive: switches re-decide each hop, so the fabric needs a
	// network.AdaptiveTable built from the same labelling as the table,
	// installed at start and again after every remap.  Its escape lane
	// routes by ud.Escapes, the rows a remap proves; the scheme's own
	// table is one-byte markers, on which the proof is vacuous.
	Adaptive bool
	// Build makes the scheme's table over the survivors of ud's failure
	// set — nil on a healthy labelling, so one function serves the first
	// build and every post-remap rebuild.  nil for up/down itself: its
	// table is ud.NewTable at start — tree-only for a switch-level run —
	// and, on a remap, the table the recovery pipeline already built.
	Build func(net topology.Net, nvc int, ud *updown.Routing) (*updown.Table, error)

	// geom reports whether net carries the geometry Build reads (nil: any
	// graph will do); needs names it, and its builder, for Check's error.
	geom  func(net topology.Net) bool
	needs string
}

// Check reports whether net satisfies the scheme's geometry precondition,
// so a configuration can be rejected before anything is built.
func (s Scheme) Check(net topology.Net) error {
	if s.geom != nil && !s.geom(net) {
		return fmt.Errorf("vcroute: route %s needs the %s", s.Name, s.needs)
	}
	return nil
}

// schemes is the registry, in the order the routing comparison draws its
// curves.  It is a literal, not an extension point.
var schemes = []Scheme{
	{Name: "updown", SwitchMC: true},
	{Name: "vcmin", MinLanes: 2, VCEncoded: true,
		geom:  func(n topology.Net) bool { return n.Torus != nil },
		needs: "torus geometry (build the Graph with topology.TorusWithGeom)",
		Build: func(n topology.Net, nvc int, ud *updown.Routing) (*updown.Table, error) {
			return TorusMinimalSurviving(n.Graph, n.Torus, nvc, ud.Failures())
		}},
	{Name: "adaptive", MinLanes: 2, VCEncoded: true, Adaptive: true,
		Build: func(n topology.Net, nvc int, ud *updown.Routing) (*updown.Table, error) {
			if nvc < 2 {
				return nil, fmt.Errorf("vcroute: adaptive routing needs an escape lane and >= 1 adaptive lane, have %d", nvc)
			}
			return Adaptive(n.Graph, ud)
		}},
	{Name: "fullmesh",
		Build: func(n topology.Net, _ int, ud *updown.Routing) (*updown.Table, error) {
			return FullMeshSurviving(n.Graph, ud.Failures())
		}},
	{Name: "clos",
		geom:  func(n topology.Net) bool { return n.Clos != nil },
		needs: "leaf-spine geometry (build the Graph with topology.ClosWithGeom)",
		Build: func(n topology.Net, _ int, ud *updown.Routing) (*updown.Table, error) {
			return Clos(n.Graph, n.Clos, ud.Failures())
		}},
	{Name: "shufflenet", MinLanes: 3, VCEncoded: true,
		geom:  func(n topology.Net) bool { return n.Shuffle != nil },
		needs: "shufflenet geometry (build the Graph with topology.BidirShufflenetWithGeom)",
		Build: func(n topology.Net, nvc int, ud *updown.Routing) (*updown.Table, error) {
			return Shufflenet(n.Graph, n.Shuffle, nvc, ud.Failures())
		}},
}

// Lookup returns the scheme called name; "" is up/down, the discipline the
// paper assumes.  The error lists the legal names.
func Lookup(name string) (Scheme, error) {
	if name == "" {
		name = "updown"
	}
	for _, s := range schemes {
		if s.Name == name {
			return s, nil
		}
	}
	return Scheme{}, fmt.Errorf("vcroute: unknown route scheme %q (want one of %s)", name, strings.Join(Names(), ", "))
}

// Names returns the registered scheme names, sorted.
func Names() []string {
	names := make([]string, len(schemes))
	for i, s := range schemes {
		names[i] = s.Name
	}
	sort.Strings(names)
	return names
}
