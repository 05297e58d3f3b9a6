package vcroute

// Additional routing schemes over the updown.Table interface: the Duato
// adaptive marker table (paired with network.AdaptiveTable on the fabric
// side), spine-deterministic Clos direct routing, forward-column shufflenet
// routing with wrap-count lanes, and failure-aware ("surviving") variants
// of every static scheme so topology-change recovery can rebuild them over
// the survivors.

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"wormlan/internal/route"
	"wormlan/internal/topology"
	"wormlan/internal/updown"
)

// Adaptive builds the source-route table for Duato-style adaptive routing:
// every route is the single route.AdaptivePort marker byte, which a fabric
// with a network.AdaptiveTable installed re-decides per hop from local
// lane occupancy (adaptive lanes >= 1, lane-0 up*/down* escape).  Pairs
// the up/down labelling cannot reach get empty routes, so senders give up
// at the adapter instead of injecting doomed worms.
func Adaptive(g *topology.Graph, ud *updown.Routing) (*updown.Table, error) {
	// The labelling's own Reachable is the cut rule here, so pairTable is
	// given no failure set to apply a second time.
	reach := make([]bool, len(g.Nodes))
	for _, h := range g.Hosts() {
		reach[h] = ud.Reachable(h)
	}
	return pairTable(g, nil, func(row []topology.PortID, src, dst topology.NodeID) ([]topology.PortID, error) {
		if !reach[src] || !reach[dst] {
			return row, nil
		}
		return append(row, route.AdaptivePort), nil
	})
}

// errDead stops a routeDead walk at the first dead hop.
var errDead = errors.New("dead hop")

// routeDead reports whether rt crosses a failed switch or link.  vcEncoded
// selects whether the route bytes carry lane ids or are raw port numbers.
func routeDead(g *topology.Graph, fail *updown.Failures, rt updown.Route, vcEncoded bool) bool {
	if fail == nil {
		return false
	}
	return rt.Walk(g, Decoder(vcEncoded), func(h updown.Hop) error {
		if fail.SwitchDead(h.Switch) || fail.LinkDead(g, h.Switch, h.Port) {
			return errDead
		}
		return nil
	}) != nil
}

// TorusMinimalSurviving is TorusMinimal restricted to the surviving
// topology: pairs whose (unique) dimension-order route crosses a failed
// link or switch get empty routes.  Minimal torus routing has no legal
// detour — the dateline argument fixes the path — so recovery here is
// pruning, with drops counted at the sender.
func TorusMinimalSurviving(g *topology.Graph, geo *topology.TorusGeom, nvc int, fail *updown.Failures) (*updown.Table, error) {
	if geo == nil {
		return nil, fmt.Errorf("vcroute: torus geometry required (build with topology.TorusWithGeom)")
	}
	if nvc < 2 {
		return nil, fmt.Errorf("vcroute: dateline routing needs >= 2 virtual channels, have %d", nvc)
	}
	at := make([]placed[torusCoord], len(g.Nodes))
	for r := range geo.Hosts {
		for c := range geo.Hosts[r] {
			for h, id := range geo.Hosts[r][c] {
				at[id] = placed[torusCoord]{torusCoord{r, c, h}, true}
			}
		}
	}
	return pairTable(g, fail, func(row []topology.PortID, src, dst topology.NodeID) ([]topology.PortID, error) {
		sc, dc, err := locate(at, src, dst, "torus")
		if err != nil {
			return row, err
		}
		from := len(row)
		row, err = torusRoute(row, geo, src, dst, sc, dc)
		if err != nil || routeDead(g, fail, updown.Route{Src: src, Dst: dst, Ports: row[from:]}, true) {
			return row[:from], err
		}
		return row, nil
	})
}

// FullMeshSurviving is FullMesh restricted to the surviving topology:
// pairs whose direct leaf-to-leaf cable (or endpoint switch) died get
// empty routes.  The scheme has no multi-hop detours by construction, so
// recovery is pruning.
func FullMeshSurviving(g *topology.Graph, fail *updown.Failures) (*updown.Table, error) {
	return pairTable(g, fail, func(row []topology.PortID, src, dst topology.NodeID) ([]topology.PortID, error) {
		sa, _ := g.HostAttachment(src)
		da, dp := g.HostAttachment(dst)
		if sa != da {
			// First live port on the source attach switch wired to the
			// destination attach switch, in ascending port order.
			found := topology.PortID(-1)
			for pi, p := range g.Node(sa).Ports {
				if p.Wired() && p.Peer == da && !fail.LinkDead(g, sa, topology.PortID(pi)) {
					found = topology.PortID(pi)
					break
				}
			}
			if found < 0 {
				if fail != nil {
					return row, nil // direct cable dead: pair unroutable
				}
				return row, fmt.Errorf("vcroute: switches %d and %d not adjacent (full mesh required)", sa, da)
			}
			row = append(row, found)
		}
		return append(row, dp), nil
	})
}

// Clos builds the spine-deterministic direct routing table for a
// leaf-spine fabric built by topology.ClosWithGeom.  Inter-leaf pairs ride
// leaf -> spine -> leaf with the spine chosen as (srcLeaf+dstLeaf) mod
// nSpine — a deterministic function of the pair that spreads load across
// the spine tier.  Like the full mesh, up channels wait only on down
// channels and down channels only on host deliveries, so no virtual
// channels are needed.
//
// fail, when non-nil, restricts routing to the survivors: the spine scan
// starts at the deterministic spine and advances to the next live one, so
// a spine kill genuinely reroutes instead of pruning.  Pairs with no live
// spine (or a dead endpoint) get empty routes.
func Clos(g *topology.Graph, geo *topology.ClosGeom, fail *updown.Failures) (*updown.Table, error) {
	if geo == nil {
		return nil, fmt.Errorf("vcroute: clos geometry required (build with topology.ClosWithGeom)")
	}
	type loc struct{ l, h int }
	at := make([]placed[loc], len(g.Nodes))
	for l := range geo.Hosts {
		for h, id := range geo.Hosts[l] {
			at[id] = placed[loc]{loc{l, h}, true}
		}
	}
	spineLive := func(li, s, lj int) bool {
		return !fail.SwitchDead(geo.Spine[s]) &&
			!fail.LinkDead(g, geo.Leaf[li], geo.Up[li][s]) &&
			!fail.LinkDead(g, geo.Leaf[lj], geo.Up[lj][s])
	}
	return pairTable(g, fail, func(row []topology.PortID, src, dst topology.NodeID) ([]topology.PortID, error) {
		sl, dl, err := locate(at, src, dst, "clos")
		if err != nil {
			return row, err
		}
		if sl.l != dl.l {
			spine := -1
			for t := 0; t < geo.NSpine; t++ {
				s := (sl.l + dl.l + t) % geo.NSpine
				if spineLive(sl.l, s, dl.l) {
					spine = s
					break
				}
			}
			if spine < 0 {
				return row, nil // no surviving spine: pair unroutable
			}
			row = append(row, geo.Up[sl.l][spine], geo.Down[spine][dl.l])
		}
		return append(row, geo.HostPort[dl.l][dl.h]), nil
	})
}

// Shufflenet builds the forward-column routing table for a bidirectional
// shufflenet built by topology.BidirShufflenetWithGeom.  Every route moves
// strictly forward (column c to c+1 mod k), taking m hops with m in
// {d, d+k} for column distance d: the free digits of the row arithmetic
// pick the intermediate rows.  The virtual-channel lane of each hop is the
// number of column-wrap crossings so far, so the channel order
//
//	(lane, column) lexicographic, host sinks last
//
// strictly increases along every path — acyclic, hence deadlock-free.  A
// route crosses the wrap at most twice (m <= 2k-1), so nvc must be at
// least 3.  Route bytes are VC-encoded: the fabric must run VCHeaders with
// NumVCs >= nvc.
//
// fail, when non-nil, restricts routing to the survivors: for each pair
// the candidate paths (shorter m first, then ascending digit strings) are
// scanned for one that avoids dead links and switches — genuine path
// diversity for m > k.  Pairs with no surviving candidate get empty
// routes.
func Shufflenet(g *topology.Graph, geo *topology.ShuffleGeom, nvc int, fail *updown.Failures) (*updown.Table, error) {
	if geo == nil {
		return nil, fmt.Errorf("vcroute: shufflenet geometry required (build with topology.BidirShufflenetWithGeom)")
	}
	if nvc < 3 {
		return nil, fmt.Errorf("vcroute: forward-column shufflenet routing needs >= 3 virtual channels (wrap count reaches 2), have %d", nvc)
	}
	type loc struct{ c, r int }
	at := make([]placed[loc], len(g.Nodes))
	for c := range geo.Hosts {
		for r, id := range geo.Hosts[c] {
			at[id] = placed[loc]{loc{c, r}, true}
		}
	}
	pow := make([]int, 2*geo.K)
	pow[0] = 1
	for i := 1; i < len(pow); i++ {
		pow[i] = pow[i-1] * geo.P
	}
	return pairTable(g, fail, func(row []topology.PortID, src, dst topology.NodeID) ([]topology.PortID, error) {
		sl, dl, err := locate(at, src, dst, "shufflenet")
		if err != nil {
			return row, err
		}
		return shuffleRoute(row, g, geo, fail, pow, src, dst, sl.c, sl.r, dl.c, dl.r)
	})
}

// shuffleRoute appends one forward-column route to row, scanning candidate
// paths (shorter first, then ascending digit strings) for the first that
// survives fail.  An all-dead candidate set appends nothing.
func shuffleRoute(row []topology.PortID, g *topology.Graph, geo *topology.ShuffleGeom, fail *updown.Failures, pow []int,
	src, dst topology.NodeID, c1, r1, c2, r2 int) ([]topology.PortID, error) {
	// Column distance d, then d + k.  At d = 0 the m = 0 candidate is the
	// host hop alone; the digit check skips it unless both hosts share a
	// switch.
	d := (c2 - c1 + geo.K) % geo.K
	ms := [2]int{d, d + geo.K}
	from := len(row)
	// tryPath appends candidate (m, x) to row[:from]; ok is false when it
	// crosses a dead switch or link or misses the destination switch.
	tryPath := func(m, x int) (ok bool, err error) {
		row = row[:from]
		cc, rr, lane := c1, r1, 0
		for h := 0; h < m; h++ {
			sw := geo.Sw[cc][rr]
			if fail.SwitchDead(sw) {
				return false, nil
			}
			digit := (x / pow[m-1-h]) % geo.P
			p := geo.Fwd[cc][rr][digit]
			if fail.LinkDead(g, sw, p) {
				return false, nil
			}
			b, err := route.EncodeVCPort(p, lane)
			if err != nil {
				return false, fmt.Errorf("vcroute: %d->%d: %w", src, dst, err)
			}
			row = append(row, topology.PortID(b))
			if cc == geo.K-1 {
				lane++ // wrap crossing: later hops ride the next lane
			}
			cc = (cc + 1) % geo.K
			rr = (rr*geo.P + digit) % geo.Rows
		}
		if cc != c2 || rr != r2 || fail.SwitchDead(geo.Sw[c2][r2]) {
			return false, nil
		}
		// Final hop into the host, on lane 0 (hosts speak lane 0; host
		// channels always drain, so the lane reset is safe).
		b, err := route.EncodeVCPort(geo.HostPort[c2][r2], 0)
		if err != nil {
			return false, fmt.Errorf("vcroute: %d->%d: %w", src, dst, err)
		}
		row = append(row, topology.PortID(b))
		return true, nil
	}
	for _, m := range ms {
		// The digit string X must satisfy X = r2 - r1*p^m (mod p^k); the
		// quotient digits above p^k are free — each choice is a distinct
		// physical path, enumerated ascending for determinism.
		base := ((r2-r1*pow[m]%geo.Rows)%geo.Rows + geo.Rows) % geo.Rows
		if m < geo.K && base >= pow[m] {
			continue // too few digits to absorb the row delta
		}
		for x := base; x < pow[m]; x += geo.Rows {
			ok, err := tryPath(m, x)
			if err != nil || ok {
				return row, err
			}
			if fail == nil {
				break // without failures the first candidate always works
			}
		}
	}
	return row[:from], nil // no surviving path: pruned
}

// Decoder returns the Route.Walk (and Table.Prove) decoder for a table's
// route bytes: lane ids packed by route.EncodeVCPort when vcEncoded, plain
// ports otherwise.
func Decoder(vcEncoded bool) func(topology.PortID) (topology.PortID, int) {
	if !vcEncoded {
		return nil
	}
	return func(b topology.PortID) (topology.PortID, int) {
		p, vc := route.DecodeVCPort(byte(b))
		return topology.PortID(p), vc
	}
}

// ValidateTable walks every route in tbl through the topology and reports
// ALL invalid pairs in one error — sorted by (src, dst), deterministic —
// instead of stopping at the first, so a broken builder is diagnosable in
// a single run.  vcEncoded selects VC route-byte decoding; when
// requireComplete is set, missing routes between distinct hosts are also
// reported (use it on fresh full-topology tables, not on failure-pruned
// rebuilds).
func ValidateTable(g *topology.Graph, tbl *updown.Table, vcEncoded, requireComplete bool) error {
	var bad []string
	for _, src := range tbl.Hosts {
		for _, dst := range tbl.Hosts {
			if src == dst {
				continue
			}
			if !tbl.HasRoute(src, dst) {
				if requireComplete {
					bad = append(bad, fmt.Sprintf("%d->%d: no route", src, dst))
				}
				continue
			}
			if err := checkRoute(g, tbl.Lookup(src, dst), vcEncoded); err != nil {
				bad = append(bad, fmt.Sprintf("%d->%d: %v", src, dst, err))
			}
		}
	}
	if len(bad) == 0 {
		return nil
	}
	sort.Strings(bad)
	return fmt.Errorf("vcroute: %d invalid route(s):\n  %s", len(bad), strings.Join(bad, "\n  "))
}

// checkRoute walks one route and returns its first inconsistency (nil when
// the route is sound): a Walk whose host delivery rides lane 0.  The
// adaptive marker route is accepted as-is: its hops are decided at the
// switches.
func checkRoute(g *topology.Graph, rt updown.Route, vcEncoded bool) error {
	if len(rt.Ports) == 1 && rt.Ports[0] == route.AdaptivePort {
		return nil
	}
	var hostLane func(updown.Hop) error // plain route bytes carry no lane
	if vcEncoded {
		hostLane = func(h updown.Hop) error {
			if h.Lane > 0 && g.Node(h.Peer).Kind == topology.Host {
				return fmt.Errorf("hop %d: host delivery on lane %d (hosts speak lane 0)", h.Index, h.Lane)
			}
			return nil
		}
	}
	return rt.Walk(g, Decoder(vcEncoded), hostLane)
}
