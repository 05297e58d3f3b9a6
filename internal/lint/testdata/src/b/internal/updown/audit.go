// Testdata for the -audit mode: a marker that suppresses a diagnostic is
// live, one that suppresses nothing is stale, and an unknown marker name
// is a typo.  Expectations live in TestAuditPackage, not in want comments,
// because audit diagnostics anchor at the marker line itself.
package updown

func UsedMarker(m map[int]int) int {
	t := 0
	//wormlint:ordered integer sum: addition is commutative
	for _, v := range m {
		t += v
	}
	return t
}

func StaleMarker(m map[int]int) []int {
	ks := make([]int, 0, len(m))
	//wormlint:ordered key collection needs no marker: maporder already allows it
	for k := range m {
		ks = append(ks, k)
	}
	return ks
}

//wormlint:bogus not a marker the tool knows
func Unknown() {}

// A bare marker on a loop with no finding never excused anything.
func BareOnKeyCollect(m map[int]int) []int {
	ks := make([]int, 0, len(m))
	//wormlint:ordered
	for k := range m {
		ks = append(ks, k)
	}
	return ks
}
