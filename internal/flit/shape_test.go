package flit

import (
	"reflect"
	"testing"
	"unsafe"
)

// registerSized reports why Go's SSA backend would not keep a value of
// type t in registers, or "" when it would: at most four words in all,
// structs of at most four fields (ssa.MaxStruct), each field itself
// register-sized, arrays of at most one element.
func registerSized(t reflect.Type) string {
	if words := unsafe.Sizeof(uintptr(0)); t.Size() > 4*words {
		return t.String() + " is wider than four words"
	}
	switch t.Kind() {
	case reflect.Struct:
		if t.NumField() > 4 {
			return t.String() + " has more than four fields"
		}
		for i := 0; i < t.NumField(); i++ {
			if why := registerSized(t.Field(i).Type); why != "" {
				return why
			}
		}
	case reflect.Array:
		if t.Len() > 1 {
			return t.String() + " is an array of more than one element"
		}
	}
	return ""
}

// TestFlitShape pins Flit to a shape the compiler keeps in registers.  A
// fifth field would turn every Flit copy on the relay path (link to slack
// to link) into a memory move through a stack temporary: a bulk copy with
// write barriers (runtime.wbMove) into heap cells, and a 16-byte reload
// that misses store-to-load forwarding.
func TestFlitShape(t *testing.T) {
	if why := registerSized(reflect.TypeOf(Flit{})); why != "" {
		t.Fatalf("%s: Go's SSA backend keeps only structs of at most four fields (and four words) in registers, "+
			"so every Flit copy would go through memory and stall store-to-load forwarding; put new one-byte fields in Tag", why)
	}
}
