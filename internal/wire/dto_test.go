package wire

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"entangled/internal/api"
	"entangled/internal/coord"
	"entangled/internal/eq"
)

// TestCollectionBoundsAreTheDeclaredMinimum: each collection a decoder
// reads is bounded at its declared bytes an element before any element
// is read: n elements pass the length check in n times that many bytes
// (whatever the elements then decode to) and are refused at the length
// in one byte fewer.
func TestCollectionBoundsAreTheDeclaredMinimum(t *testing.T) {
	present := func(e *Enc, n int) { e.Uvarint(uint64(n) + 1) }
	count := func(e *Enc, n int) { e.Uvarint(uint64(n)) }
	for _, c := range []struct {
		name   string
		min    int
		prefix func(e *Enc, n int)
		decode func(d *Dec)
	}{
		{"atom args", 2, func(e *Enc, n int) { e.String("R"); present(e, n) }, func(d *Dec) { getAtom(d, nil) }},
		{"atoms", 2, present, func(d *Dec) { getAtoms(d, nil) }},
		{"queries", 4, present, func(d *Dec) { getQueries(d, nil) }},
		{"ints", 1, present, func(d *Dec) { getInts(d) }},
		{"result values", 2, func(e *Enc, n int) { e.Bool(true); e.Uvarint(0); count(e, n) }, func(d *Dec) { GetResult(d) }},
		{"result value names", 2, func(e *Enc, n int) { e.Bool(true); e.Uvarint(0); count(e, 1); e.Int(0); count(e, n) }, func(d *Dec) { GetResult(d) }},
		{"trace prunes", 2, func(e *Enc, n int) { e.Bool(true); present(e, n) }, func(d *Dec) { GetTrace(d) }},
		{"trace components", 4, func(e *Enc, n int) { e.Bool(true); e.Uvarint(0); present(e, n) }, func(d *Dec) { GetTrace(d) }},
		{"peers down", 1, func(e *Enc, n int) {
			e.String("ok")
			e.Int(0)
			e.Float(0)
			e.Bool(false)
			e.String("")
			e.Bool(true)
			e.String("a")
			e.Int(1)
			present(e, n)
		}, func(d *Dec) { GetHealth(d) }},
		{"cluster nodes", 4, func(e *Enc, n int) { e.Bool(true); e.String("a"); e.Int(1); e.String("v"); present(e, n) }, func(d *Dec) { GetClusterStatus(d) }},
		{"cluster relations", 2, func(e *Enc, n int) {
			e.Bool(true)
			e.String("a")
			e.Int(1)
			e.String("v")
			e.Uvarint(0)
			present(e, n)
		}, func(d *Dec) { GetClusterStatus(d) }},
		{"responses", 3, present, func(d *Dec) { GetResponses(d) }},
		{"requests", 2, present, func(d *Dec) { getRequests(d, nil) }},
	} {
		const n = 5
		refused := fmt.Sprintf("collection of %d elements exceeds", n)
		for _, room := range []int{n * c.min, n*c.min - 1} {
			var e Enc
			c.prefix(&e, n)
			d := NewDec(append(e.Bytes(), make([]byte, room)...))
			c.decode(d)
			if err := d.Err(); (err != nil && strings.Contains(err.Error(), refused)) != (room < n*c.min) {
				t.Errorf("%s: %d elements in %d bytes: %v", c.name, n, room, err)
			}
		}
	}
}

// TestSingleElementListsRoundTrip: a list of one element decodes as one,
// and an empty list that is not nil stays so where JSON renders the two
// apart.
func TestSingleElementListsRoundTrip(t *testing.T) {
	h := api.Health{Status: "ok", Cluster: &api.ClusterHealth{Self: "a", Nodes: 2, PeersDown: []string{"b"}}}
	var e Enc
	PutHealth(&e, h)
	d := NewDec(e.Bytes())
	if got := GetHealth(d); d.Finish() != nil || !reflect.DeepEqual(got, h) {
		t.Errorf("health: %+v (%v), want %+v", got, d.Err(), h)
	}
	cs := api.ClusterStatus{Enabled: true, Self: "a", Nodes: []api.ClusterNode{{Name: "a", Addr: "x:1", Self: true}}}
	e.Reset(nil)
	PutClusterStatus(&e, cs)
	d = NewDec(e.Bytes())
	if got := GetClusterStatus(d); d.Finish() != nil || !reflect.DeepEqual(got, cs) {
		t.Errorf("cluster status: %+v (%v), want %+v", got, d.Err(), cs)
	}
	e.Reset(nil)
	PutResponses(&e, []api.Response{})
	d = NewDec(e.Bytes())
	if got := GetResponses(d); d.Finish() != nil || got == nil || len(got) != 0 {
		t.Errorf("no responses: %#v (%v), want an empty list", got, d.Err())
	}
	e.Reset(nil)
	PutRequests(&e, []api.Request{})
	d = NewDec(e.Bytes())
	if got := getRequests(d, nil); d.Finish() != nil || got == nil || len(got) != 0 {
		t.Errorf("no requests: %#v (%v), want an empty list", got, d.Err())
	}
}

// TestPutResultIsDeterministic: a result encodes to the same bytes
// every time, its queries in index order and each query's variables in
// name order, whatever the maps'.
func TestPutResultIsDeterministic(t *testing.T) {
	vals := map[string]eq.Value{}
	for _, name := range []string{"h", "g", "f", "e", "d", "c", "b", "a"} {
		vals[name] = eq.Value("v" + name)
	}
	r := &coord.Result{Set: []int{0}, Values: map[int]map[string]eq.Value{0: vals}}
	for k := 1; k < 8; k++ {
		r.Set = append(r.Set, k)
		r.Values[k] = map[string]eq.Value{"x": eq.Value(fmt.Sprint("q", k))}
	}
	var first Enc
	PutResult(&first, r)
	for range 20 {
		var e Enc
		PutResult(&e, r)
		if !bytes.Equal(e.Bytes(), first.Bytes()) {
			t.Fatal("one result encoded to two byte strings")
		}
	}
	if i, j := bytes.Index(first.Bytes(), []byte("va")), bytes.Index(first.Bytes(), []byte("vh")); i < 0 || i > j {
		t.Fatal("the variables are not in name order")
	}
	for k := 1; k < 7; k++ {
		if i, j := bytes.Index(first.Bytes(), []byte(fmt.Sprint("q", k))), bytes.Index(first.Bytes(), []byte(fmt.Sprint("q", k+1))); i < 0 || i > j {
			t.Fatal("the queries are not in index order")
		}
	}
}

// TestForwardBodyLengthRefused: a forward whose body length runs past
// the payload is refused at the length.
func TestForwardBodyLengthRefused(t *testing.T) {
	var e Enc
	e.String("a")
	e.Int(1)
	e.Byte(byte(KindJoin))
	e.Uvarint(3)
	e.Byte(0)
	d := NewDec(e.Bytes())
	DecodeForward(d)
	if err := d.Finish(); err == nil || !strings.Contains(err.Error(), "forward body length 3 exceeds remaining 1 bytes") {
		t.Fatalf("a forward body of 3 bytes in 1: %v", err)
	}
}
