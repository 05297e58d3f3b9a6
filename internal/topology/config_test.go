package topology

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"testing"
)

const sampleConfig = `
# the paper's Figure 3 shape: five switches, two hosts
switch A
switch B
switch C
switch D
switch E
host x A
host b E
host c D
link A B
link B E
link A C delay=5
link C D
link D E      # crosslink
group 1 x b c
`

func TestParseConfig(t *testing.T) {
	g, groups, err := ParseConfig(strings.NewReader(sampleConfig))
	if err != nil {
		t.Fatal(err)
	}
	s := g.Summary()
	if s.Switches != 5 || s.Hosts != 3 || s.Links != 5+3 {
		t.Fatalf("summary %+v", s)
	}
	if len(groups) != 1 || len(groups[1]) != 3 {
		t.Fatalf("groups %v", groups)
	}
	// The delayed link must carry its delay.
	a := g.Switches()[0]
	found := false
	for _, p := range g.Node(a).Ports {
		if p.Wired() && g.Node(p.Peer).Name == "C" && p.Delay == 5 {
			found = true
		}
	}
	if !found {
		t.Fatal("delay=5 link not found")
	}
}

func TestConfigRoundtrip(t *testing.T) {
	g, groups, err := ParseConfig(strings.NewReader(sampleConfig))
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := writeConfig(&sb, g, groups); err != nil {
		t.Fatal(err)
	}
	g2, groups2, err := ParseConfig(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("re-parse: %v\n%s", err, sb.String())
	}
	if g.DOT() != g2.DOT() {
		t.Fatalf("roundtrip changed the topology:\n%s\nvs\n%s", g.DOT(), g2.DOT())
	}
	if len(groups2[1]) != len(groups[1]) {
		t.Fatalf("roundtrip changed groups: %v vs %v", groups, groups2)
	}
}

func TestWriteConfigOfBuilders(t *testing.T) {
	g := Torus(3, 3, 1, 1)
	var sb strings.Builder
	if err := writeConfig(&sb, g, nil); err != nil {
		t.Fatal(err)
	}
	g2, _, err := ParseConfig(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if g.Summary() != g2.Summary() {
		t.Fatalf("summaries differ: %+v vs %+v", g.Summary(), g2.Summary())
	}
}

func TestParseConfigErrors(t *testing.T) {
	cases := map[string]string{
		"bad directive":   "frobnicate x",
		"dup switch":      "switch a\nswitch a",
		"host no switch":  "host h1 nowhere",
		"host not switch": "switch s\nhost h s\nhost h2 h",
		"short host":      "host h",
		"link unknown":    "switch a\nlink a b",
		"link to host":    "switch a\nhost h a\nswitch b\nlink b h",
		"bad delay":       "switch a\nswitch b\nlink a b delay=x",
		"negative delay":  "switch a\nswitch b\nlink a b delay=-2",
		"bad option":      "switch a\nswitch b\nlink a b speed=9",
		"group short":     "switch s\nhost h s\ngroup 1 h",
		"group bad id":    "switch s\nhost h1 s\nhost h2 s\ngroup x h1 h2",
		"group unknown":   "switch s\nhost h1 s\ngroup 1 h1 hZ",
		"group non-host":  "switch s\nhost h1 s\ngroup 1 h1 s",
		"dup group":       "switch s\nhost h1 s\nhost h2 s\ngroup 1 h1 h2\ngroup 1 h1 h2",
		"disconnected":    "switch a\nswitch b\nswitch c\nlink a b",
		"dup host":        "switch s\nhost h s\nhost h s",
		"short switch":    "switch",
		"short link":      "switch a\nlink a",
	}
	for name, cfg := range cases {
		if _, _, err := ParseConfig(strings.NewReader(cfg)); err == nil {
			t.Errorf("%s: accepted:\n%s", name, cfg)
		}
	}
}

func TestParseConfigCommentsAndBlank(t *testing.T) {
	cfg := "\n# only comments\n   \nswitch a # trailing\nswitch b\nlink a b\n"
	g, groups, err := ParseConfig(strings.NewReader(cfg))
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Switches()) != 2 || len(groups) != 0 {
		t.Fatal("comment handling broken")
	}
}

// writeConfig renders the graph (and optional groups) in the configuration
// format ParseConfig reads: the round-trip the config tests check.
func writeConfig(w io.Writer, g *Graph, groups map[int][]NodeID) error {
	for _, sw := range g.Switches() {
		if _, err := fmt.Fprintf(w, "switch %s\n", g.Node(sw).Name); err != nil {
			return err
		}
	}
	for _, h := range g.Hosts() {
		sw, _ := g.HostAttachment(h)
		if _, err := fmt.Fprintf(w, "host %s %s\n", g.Node(h).Name, g.Node(sw).Name); err != nil {
			return err
		}
	}
	type edge struct {
		a, b NodeID
		d    int64
	}
	var edges []edge
	seen := map[[2]NodeID]bool{}
	for _, sw := range g.Switches() {
		for _, p := range g.Node(sw).Ports {
			if !p.Wired() || g.Node(p.Peer).Kind != Switch {
				continue
			}
			a, b := sw, p.Peer
			if a > b {
				a, b = b, a
			}
			if seen[[2]NodeID{a, b}] {
				continue
			}
			seen[[2]NodeID{a, b}] = true
			edges = append(edges, edge{a, b, p.Delay})
		}
	}
	for _, e := range edges {
		if _, err := fmt.Fprintf(w, "link %s %s delay=%d\n",
			g.Node(e.a).Name, g.Node(e.b).Name, e.d); err != nil {
			return err
		}
	}
	ids := make([]int, 0, len(groups))
	for id := range groups {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		names := make([]string, len(groups[id]))
		for i, h := range groups[id] {
			names[i] = g.Node(h).Name
		}
		if _, err := fmt.Fprintf(w, "group %d %s\n", id, strings.Join(names, " ")); err != nil {
			return err
		}
	}
	return nil
}
