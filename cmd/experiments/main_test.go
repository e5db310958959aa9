package main

import (
	"reflect"
	"strings"
	"testing"
)

func TestSelectIDs(t *testing.T) {
	known := []string{"table1", "fig13", "fig17", "verifydiff"}
	set := func(ids ...string) map[string]bool {
		m := map[string]bool{}
		for _, id := range ids {
			m[id] = true
		}
		return m
	}
	for _, tc := range []struct {
		name, list string
		want       map[string]bool
		unknown    string // non-empty: the error must name this id
	}{
		{name: "all", list: "all", want: set(known...)},
		{name: "one", list: "fig13", want: set("fig13")},
		{name: "list", list: "fig13,verifydiff", want: set("fig13", "verifydiff")},
		{name: "whitespace", list: " fig13 , fig17\t", want: set("fig13", "fig17")},
		{name: "unknown", list: "fig99", unknown: `"fig99"`},
		{name: "unknown in list", list: "fig13, bogus", unknown: `"bogus"`},
		{name: "empty entry", list: "fig13,,fig17", unknown: `""`},
		{name: "all in list", list: "fig13,all", unknown: `"all"`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, err := selectIDs(tc.list, known)
			if tc.unknown != "" {
				if err == nil || !strings.Contains(err.Error(), "unknown experiment id "+tc.unknown) {
					t.Fatalf("selectIDs(%q) = %v, %v; want an error naming %s", tc.list, got, err, tc.unknown)
				}
				return
			}
			if err != nil {
				t.Fatalf("selectIDs(%q): %v", tc.list, err)
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("selectIDs(%q) = %v, want %v", tc.list, got, tc.want)
			}
		})
	}
}
