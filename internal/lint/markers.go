package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// wormlint's escape hatches are `//wormlint:<name> <justification>`
// comments on (or immediately above) the construct they exempt.  The
// justification is mandatory everywhere: a bare marker is reported in
// place of the finding it would excuse.  Every marker is tracked for use
// so `wormlint -audit` can flag annotations that no longer excuse
// anything.
const (
	// markerOrdered exempts a provably order-insensitive map iteration
	// from maporder.
	markerOrdered = "ordered"
	// markerAlloc exempts a justified allocation (line or whole function)
	// from hotalloc.
	markerAlloc = "alloc"
	// markerPartial exempts a deliberately non-exhaustive enum switch
	// from kindswitch.
	markerPartial = "partial"
	// markerKeep, on a struct field declaration, exempts the field from
	// poolreset's every-field reset requirement (state that deliberately
	// survives recycling).
	markerKeep = "keep"
	// markerUnguarded exempts a trace emission site from traceguard's
	// rec != nil dominance requirement.
	markerUnguarded = "unguarded"
)

// markerAnalyzer maps each marker name to the analyzer it suppresses,
// for audit messages.
var markerAnalyzer = map[string]string{
	markerOrdered:   "maporder",
	markerAlloc:     "hotalloc",
	markerPartial:   "kindswitch",
	markerKeep:      "poolreset",
	markerUnguarded: "traceguard",
}

// markerPrefix introduces every wormlint annotation comment.
const markerPrefix = "wormlint:"

// A marker is one parsed `//wormlint:<name> <justification>` comment,
// with a use bit excused sets when the marker answers a finding.
// AuditPackage flags markers whose bit never sets.
type marker struct {
	name          string
	justification string
	pos           token.Pos
	used          bool
}

// A markerSet indexes every wormlint marker of one package's non-test
// files by (file, line).  It is built once per package and shared by all
// analyzer passes so use-tracking accumulates across the whole suite.
type markerSet struct {
	at  map[markerLine][]*marker
	all []*marker
}

type markerLine struct {
	file string
	line int
}

// collectMarkers parses the wormlint annotations out of files' comments.
// Unknown marker names are collected too (never usable, so audit flags
// them).
func collectMarkers(fset *token.FileSet, files []*ast.File) markerSet {
	ms := markerSet{at: make(map[markerLine][]*marker)}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				rest, ok := strings.CutPrefix(text, markerPrefix)
				if !ok {
					continue
				}
				name, just, _ := strings.Cut(rest, " ")
				m := &marker{name: name, justification: strings.TrimSpace(just), pos: c.Pos()}
				pos := fset.Position(c.Pos())
				k := markerLine{pos.Filename, pos.Line}
				ms.at[k] = append(ms.at[k], m)
				ms.all = append(ms.all, m)
			}
		}
	}
	return ms
}

// excused is the one marker rule, consulted by an analyzer only where it
// has a finding at pos.  It looks for a //wormlint:<name> marker on pos's
// line or the line above; found reports whether there is one, and if so
// its use bit is set.  A justified marker excuses the finding.  A bare one
// is reported at pos in the finding's place, why naming the justification
// it lacks; either way the caller reports nothing when found.  justified
// tells the two apart for hotalloc's function-level marker, which only a
// justification lets excuse sites it does not sit on.
func (p *Pass) excused(name string, pos token.Pos, why string) (found, justified bool) {
	at := p.Fset.Position(pos)
	for _, line := range [2]int{at.Line, at.Line - 1} {
		for _, m := range p.markers.at[markerLine{at.Filename, line}] {
			if m.name != name {
				continue
			}
			m.used = true
			if m.justification == "" {
				p.Reportf(pos, "bare //wormlint:%s marker: %s", name, why)
			}
			return true, m.justification != ""
		}
	}
	return false, false
}

// AuditPackage runs the analyzers over one package with reporting
// swallowed, purely for their marker-use side effects, then reports every
// marker that excused nothing: stale escape hatches that outlived the
// code they excused, bare markers (no justification) that never excused
// anything, and markers with unknown names.  The returned
// diagnostics carry the pseudo-analyzer name "audit".
func AuditPackage(fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, analyzers []*Analyzer) ([]Diagnostic, error) {
	markers, err := runSuite(fset, files, pkg, info, analyzers, func(Diagnostic) {})
	if err != nil {
		return nil, err
	}
	var diags []Diagnostic
	for _, m := range markers.all {
		if m.used {
			continue
		}
		an, known := markerAnalyzer[m.name]
		var msg string
		switch {
		case !known:
			msg = "unknown //wormlint:" + m.name + " marker (known: " + knownMarkerList() + ")"
		case m.justification == "":
			msg = "bare //wormlint:" + m.name + " marker excuses no " + an + " diagnostic — remove it"
		default:
			msg = "stale //wormlint:" + m.name + " marker: it no longer suppresses any " + an + " diagnostic — remove it"
		}
		diags = append(diags, Diagnostic{Analyzer: "audit", Pos: m.pos, Message: msg})
	}
	sortDiagnostics(fset, diags)
	return diags, nil
}

func knownMarkerList() string {
	names := make([]string, 0, len(markerAnalyzer))
	for n := range markerAnalyzer {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}
