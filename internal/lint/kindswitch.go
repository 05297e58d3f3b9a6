package lint

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// KindSwitch enforces exhaustiveness on switches over the simulator's
// grown-by-accretion enums.  Three separate PRs added flit kinds, trace
// event kinds, and fault plan kinds; nothing re-checks the consumers when
// a constant lands, so a new kind silently falls through every switch
// written before it existed.
//
// A switch whose tag is one of the registered enum types must either
//
//   - enumerate every declared constant of the type among its case
//     expressions,
//   - carry a `default:` clause (the author has decided what "anything
//     else" means, including future kinds), or
//   - carry a `//wormlint:partial <justification>` comment on (or above)
//     the switch, asserting the unlisted kinds cannot reach this point.
//
// The justification is mandatory: a bare marker is reported in place of
// the finding.
// Constants are compared by value, so aliased constants count as
// covering each other.
var KindSwitch = &Analyzer{
	Name:  "kindswitch",
	Doc:   "flags non-exhaustive switches over flit/trace/fault enum types",
	Scope: deterministicScope,
	Run:   runKindSwitch,
}

// kindEnums registers the enum types whose switches must be exhaustive,
// as (package path suffix, type name) pairs.
var kindEnums = [][2]string{
	{"internal/flit", "Kind"},
	{"internal/flit", "Mode"},
	{"internal/trace", "Kind"},
	{"internal/fault", "Kind"},
}

func runKindSwitch(p *Pass) error {
	p.walk(func(n ast.Node) bool {
		sw, ok := n.(*ast.SwitchStmt)
		if !ok || sw.Tag == nil {
			return true
		}
		named := registeredEnum(p.TypesInfo.TypeOf(sw.Tag))
		if named == nil {
			return true
		}
		covered := make(map[string]bool)
		hasDefault := false
		for _, stmt := range sw.Body.List {
			cc, ok := stmt.(*ast.CaseClause)
			if !ok {
				continue
			}
			if cc.List == nil {
				hasDefault = true
				continue
			}
			for _, e := range cc.List {
				if tv, ok := p.TypesInfo.Types[e]; ok && tv.Value != nil {
					covered[tv.Value.ExactString()] = true
				}
			}
		}
		if hasDefault {
			return true
		}
		missing := missingConstants(named, covered)
		if len(missing) == 0 {
			return true
		}
		if found, _ := p.excused(markerPartial, sw.Pos(), "a justification explaining why the unhandled kinds cannot reach this switch is required"); found {
			return true
		}
		p.Reportf(sw.Pos(), "switch over %s.%s is not exhaustive: missing %s; add the cases, a default clause, or //wormlint:partial <why>",
			named.Obj().Pkg().Name(), named.Obj().Name(), strings.Join(missing, ", "))
		return true
	})
	return nil
}

// registeredEnum returns t as a registered enum's *types.Named, or nil.
func registeredEnum(t types.Type) *types.Named {
	named, ok := t.(*types.Named)
	if !ok {
		return nil
	}
	obj := named.Obj()
	if obj.Pkg() == nil {
		return nil
	}
	for _, e := range kindEnums {
		if obj.Name() == e[1] && under(obj.Pkg().Path(), e[0]) {
			return named
		}
	}
	return nil
}

// missingConstants returns the names of named's declared constants whose
// values are absent from covered, in declaration-scope name order.
func missingConstants(named *types.Named, covered map[string]bool) []string {
	scope := named.Obj().Pkg().Scope()
	var missing []string
	for _, name := range scope.Names() {
		c, ok := scope.Lookup(name).(*types.Const)
		if !ok || !types.Identical(c.Type(), named) {
			continue
		}
		if !covered[c.Val().ExactString()] {
			missing = append(missing, c.Name())
		}
	}
	sort.Strings(missing)
	return missing
}
