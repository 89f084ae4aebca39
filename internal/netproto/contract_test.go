package netproto

import (
	"math/bits"
	"reflect"
	"strings"
	"testing"
)

// Every body field of Request has a bit and a name in the contract, and
// setting that field alone sets exactly its bit. A field added to Request
// without a bit fails here, so no field can be left out of the contract.
func TestContractNamesEveryBodyField(t *testing.T) {
	typ := reflect.TypeOf(Request{})
	body := 0
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		if name == "Kind" || name == "TimeoutMillis" {
			continue // frame header, not body
		}
		body++
		r, n := &Request{}, 0
		fill(t, reflect.ValueOf(r).Elem().Field(i), &n)
		f := r.fields()
		if bits.OnesCount16(uint16(f)) != 1 || fieldNames[bits.TrailingZeros16(uint16(f))] != name {
			t.Errorf("setting %s alone sets the fields %016b, want its one named bit", name, f)
		}
	}
	if body != len(fieldNames) {
		t.Errorf("Request has %d body fields, the contract names %d", body, len(fieldNames))
	}
	for k := KindPing; k <= KindGossip; k++ {
		if strings.HasPrefix(k.String(), "RequestKind(") {
			t.Errorf("kind %d has no name", int(k))
		}
	}
}

// wellFormed returns a request of kind k that sets every field k reads,
// its batch members' values only where c reads them.
func wellFormed(t *testing.T, c Contract, k RequestKind, reads Fields) *Request {
	r, n := &Request{Kind: k}, 0
	for bit, name := range fieldNames {
		if reads&(1<<bit) != 0 {
			fill(t, reflect.ValueOf(r).Elem().FieldByName(name), &n)
		}
	}
	if !c.MemberValues {
		for i := range r.Batch {
			r.Batch[i].BusinessValue = 0
		}
	}
	return r
}

// Each served kind accepts a request that sets every field it reads,
// without allocating, and refuses each other field, naming the kind and
// that field. An unserved kind is refused by the same check.
func TestCheckRefusesWhatAKindDoesNotRead(t *testing.T) {
	for _, c := range []Contract{RemoteContract, DSSContract} {
		for k := KindPing; k <= KindGossip; k++ {
			reads, served := c.Reads[k]
			r := wellFormed(t, c, k, reads)
			if !served {
				if err := r.Check(c); err == nil || err.Error() != "netproto: "+c.Server+" does not serve "+k.String() {
					t.Errorf("%s, unserved %v: %v", c.Server, k, err)
				}
				continue
			}
			if allocs := testing.AllocsPerRun(100, func() {
				if err := r.Check(c); err != nil {
					t.Fatalf("%s, well-formed %v: %v", c.Server, k, err)
				}
			}); allocs != 0 {
				t.Errorf("%s, well-formed %v: the check allocates %.0f times", c.Server, k, allocs)
			}
			for bit, name := range fieldNames {
				if reads&(1<<bit) != 0 {
					continue
				}
				stray := wellFormed(t, c, k, reads|1<<bit)
				want := "netproto: " + k.String() + " to " + c.Server + " does not read " + name
				if err := stray.Check(c); err == nil || err.Error() != want {
					t.Errorf("%s, %v with %s: %v, want %q", c.Server, k, name, err, want)
				}
			}
		}
	}
	// A remote site does not price a batch's members: a member's value is
	// refused like a stray field.
	priced := wellFormed(t, DSSContract, KindBatch, FieldBatch)
	want := "netproto: KindBatch to a remote site does not read Batch.BusinessValue"
	if err := priced.Check(RemoteContract); err == nil || err.Error() != want {
		t.Errorf("a remote site, KindBatch with a member's value: %v, want %q", err, want)
	}
}
