// Command topoview inspects a topology: node/link summary, the up/down
// spanning tree labelling, route statistics, and optional Graphviz DOT
// output.
//
// Example:
//
//	topoview -topology torus8x8 -routes
//	topoview -topology myrinet4 -dot > myrinet4.dot
package main

import (
	"flag"
	"fmt"
	"os"

	"wormlan/internal/topology"
	"wormlan/internal/updown"
)

func main() {
	topoName := flag.String("topology", "myrinet4", "topology: torus8x8, torus4x4, shufflenet24, shufflenet64, clos8x4, myrinet4, fullmesh8x4, fullmesh8x8, star:N, line:N, ring:N")
	dot := flag.Bool("dot", false, "emit Graphviz DOT and exit")
	routes := flag.Bool("routes", false, "print route statistics")
	flag.Parse()

	net, err := topology.Named(*topoName, 0)
	if err != nil {
		fmt.Fprintf(os.Stderr, "topoview: %v\n", err)
		os.Exit(2)
	}
	g := net.Graph
	if *dot {
		fmt.Print(g.DOT())
		return
	}
	s := g.Summary()
	fmt.Printf("topology %s: %d switches, %d hosts, %d links, diameter %d, max switch degree %d\n",
		*topoName, s.Switches, s.Hosts, s.Links, s.Diameter, s.MaxSwitchDegree)

	ud, err := updown.New(g, topology.None)
	if err != nil {
		fmt.Fprintf(os.Stderr, "topoview: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("up/down root: %s\n", g.Node(ud.Root).Name)
	levels := map[int]int{}
	for _, sw := range g.Switches() {
		levels[ud.Level[sw]]++
	}
	for l := 0; ; l++ {
		n, ok := levels[l]
		if !ok {
			break
		}
		fmt.Printf("  level %d: %d switches\n", l, n)
	}
	if *routes {
		free, err := ud.NewTable(false)
		if err != nil {
			fmt.Fprintf(os.Stderr, "topoview: %v\n", err)
			os.Exit(1)
		}
		restricted, err := ud.NewTable(true)
		if err != nil {
			fmt.Fprintf(os.Stderr, "topoview: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("mean route hops: up/down=%.2f tree-restricted=%.2f\n",
			free.MeanHops(), restricted.MeanHops())
	}
}
