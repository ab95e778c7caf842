package main

import (
	"fmt"
	"strings"
	"testing"

	"hybridstore/internal/workload"
)

// oltpText renders the first n operations of one client's stream.
func oltpText(seed int64, client, n int) string {
	s := newOLTPStream(seed, workload.StandardTable("t"), client, 2, 10_000)
	var b strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintln(&b, s.next())
	}
	return b.String()
}

func olapText(seed int64, n int) string {
	s := newOLAPStream(seed, 10_000)
	var b strings.Builder
	for i := 0; i < n; i++ {
		class, params := s.next()
		fmt.Fprintln(&b, class, params)
	}
	return b.String()
}

func advisorText(seed int64) string {
	a := newAdvisor(config{seed: seed, smoke: true}).(*advisorBench)
	next := a.firstInsertID()
	var b strings.Builder
	for _, q := range a.mix(1, &next).Queries {
		fmt.Fprintln(&b, q)
	}
	return b.String()
}

func rowsText(seed int64) string {
	m := newRowMaker(workload.StandardTable("t"), seed)
	var b strings.Builder
	for _, id := range []int64{0, 1, 7, 1 << 33} {
		fmt.Fprintln(&b, m.row(id))
	}
	return b.String()
}

// The same seed gives byte-identical statement streams, another seed
// gives others.
func TestGeneratorsAreFunctionsOfTheSeed(t *testing.T) {
	gens := map[string]func(seed int64) string{
		"oltp client 0": func(s int64) string { return oltpText(s, 0, 500) },
		"oltp client 1": func(s int64) string { return oltpText(s, 1, 500) },
		"olap":          func(s int64) string { return olapText(s, 200) },
		"advisor mix":   advisorText,
		"row maker":     rowsText,
	}
	for name, gen := range gens {
		a, b, c := gen(2012), gen(2012), gen(2013)
		if a != b {
			t.Errorf("%s: the same seed gave different streams", name)
		}
		if a == c {
			t.Errorf("%s: different seeds gave the same stream", name)
		}
		if len(a) == 0 {
			t.Errorf("%s: empty stream", name)
		}
	}
	if oltpText(2012, 0, 500) == oltpText(2012, 1, 500) {
		t.Error("oltp: two clients got the same stream")
	}
}

// A client's updates and inserts stay on its own keys, so the final table
// does not depend on the interleaving.
func TestOLTPStreamsWriteDisjointKeys(t *testing.T) {
	spec := workload.StandardTable("t")
	for c := 0; c < 2; c++ {
		s := newOLTPStream(2012, spec, c, 2, 10_000)
		seen := map[int64]bool{}
		for i := 0; i < 5000; i++ {
			op := s.next()
			switch op.class {
			case clsUpdate, clsInsert:
				if op.key%2 != int64(c) {
					t.Fatalf("client %d writes key %d of the other client", c, op.key)
				}
			}
			if op.class == clsInsert {
				if op.key < 10_000 || seen[op.key] {
					t.Fatalf("client %d inserts key %d twice or inside the loaded table", c, op.key)
				}
				seen[op.key] = true
				if op.row[0].Int() != op.key {
					t.Fatalf("insert row carries id %d, want %d", op.row[0].Int(), op.key)
				}
			}
		}
	}
}

// The row maker is a function of (seed, id): asking again, in any order,
// gives the same row.
func TestRowMakerIsOrderIndependent(t *testing.T) {
	m := newRowMaker(workload.StandardTable("t"), 5)
	first := fmt.Sprint(m.row(42))
	m.row(7)
	m.row(1 << 20)
	if again := fmt.Sprint(m.row(42)); again != first {
		t.Errorf("row 42 changed between calls:\n%s\n%s", first, again)
	}
}
