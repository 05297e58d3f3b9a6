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
	"io"
	"os"

	"wormlan/internal/topology"
	"wormlan/internal/updown"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command: 0 on success, 1 if the topology cannot be
// routed, 2 on usage errors (bad flag or unknown topology).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("topoview", flag.ContinueOnError)
	fs.SetOutput(stderr)
	topoName := fs.String("topology", "myrinet4", "topology: torus8x8, torus4x4, shufflenet24, shufflenet64, clos8x4, myrinet4, fullmesh8x4, fullmesh8x8, star:N, line:N, ring:N")
	dot := fs.Bool("dot", false, "emit Graphviz DOT and exit")
	routes := fs.Bool("routes", false, "print route statistics")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	net, err := topology.Named(*topoName, 0)
	if err != nil {
		fmt.Fprintf(stderr, "topoview: %v\n", err)
		return 2
	}
	g := net.Graph
	if *dot {
		fmt.Fprint(stdout, g.DOT())
		return 0
	}
	s := g.Summary()
	fmt.Fprintf(stdout, "topology %s: %d switches, %d hosts, %d links, diameter %d, max switch degree %d\n",
		*topoName, s.Switches, s.Hosts, s.Links, s.Diameter, s.MaxSwitchDegree)

	fail := func(err error) int {
		fmt.Fprintf(stderr, "topoview: %v\n", err)
		return 1
	}
	ud, err := updown.New(g, topology.None)
	if err != nil {
		return fail(err)
	}
	fmt.Fprintf(stdout, "up/down root: %s\n", g.Node(ud.Root).Name)
	levels := map[int]int{}
	for _, sw := range g.Switches() {
		levels[ud.Level[sw]]++
	}
	for l := 0; ; l++ {
		n, ok := levels[l]
		if !ok {
			break
		}
		fmt.Fprintf(stdout, "  level %d: %d switches\n", l, n)
	}
	if *routes {
		free, err := ud.NewTable(false)
		if err != nil {
			return fail(err)
		}
		restricted, err := ud.NewTable(true)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "mean route hops: up/down=%.2f tree-restricted=%.2f\n",
			free.MeanHops(), restricted.MeanHops())
	}
	return 0
}
