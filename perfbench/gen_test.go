package main

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"mtcache/internal/core"
	"mtcache/internal/engine"
	"mtcache/internal/exec"
	"mtcache/internal/tpcw"
)

// tpcwTrace runs n interactions of a seeded TPC-W client over a connection
// that answers every call with an empty result, and returns the interaction
// and call-key sequence it produced.
func tpcwTrace(t *testing.T, mix tpcw.Workload, seed int64, n int) []string {
	t.Helper()
	var out []string
	conn := core.NewConn("fake",
		func(text string, params exec.Params) (*engine.Result, error) {
			out = append(out, "exec "+text)
			return &engine.Result{}, nil
		},
		func(proc string, params exec.Params) (*engine.Result, error) {
			out = append(out, "call "+callKey(proc, params))
			return &engine.Result{}, nil
		})
	cfg := tpcw.DefaultConfig()
	c := newTPCWClient(tpcw.NewApp(conn, cfg), mix, seed, 0)
	for i := 0; i < n; i++ {
		label, _, err := c.next()
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, fmt.Sprintf("interaction %d", label))
	}
	return out
}

func TestTPCWClientIsSeeded(t *testing.T) {
	for _, mix := range []tpcw.Workload{tpcw.Browsing, tpcw.Ordering} {
		a, b := tpcwTrace(t, mix, 7, 300), tpcwTrace(t, mix, 7, 300)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%v: same seed gave different interaction/key sequences", mix)
		}
		if c := tpcwTrace(t, mix, 8, 300); reflect.DeepEqual(a, c) {
			t.Errorf("%v: seeds 7 and 8 gave the same sequence", mix)
		}
	}
}

func pointTrace(seed int64, session, n int) []string {
	g := newPointGen(seed, session, tpcw.DefaultConfig())
	out := make([]string, n)
	for i := range out {
		out[i] = g.next()
	}
	return out
}

func TestPointGenIsSeeded(t *testing.T) {
	a := pointTrace(3, 0, 2000)
	if !reflect.DeepEqual(a, pointTrace(3, 0, 2000)) {
		t.Error("same seed gave different point statements")
	}
	if reflect.DeepEqual(a, pointTrace(4, 0, 2000)) {
		t.Error("seeds 3 and 4 gave the same point statements")
	}
	if reflect.DeepEqual(a, pointTrace(3, 1, 2000)) {
		t.Error("two sessions of one seed drew the same statements")
	}
	items := 0
	distinct := map[string]bool{}
	for _, q := range a {
		distinct[q] = true
		if strings.Contains(q, "FROM item ") {
			items++
		}
	}
	if items < 1400 || items > 1600 {
		t.Errorf("%d of 2000 statements read item, want about 3 in 4", items)
	}
	if len(distinct) < 200 || len(distinct) > 1900 {
		t.Errorf("%d distinct keys in 2000 draws: want skewed but wide", len(distinct))
	}
}
