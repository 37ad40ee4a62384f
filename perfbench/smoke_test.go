package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"mtcache/internal/tpcw"
)

// TestMain lets the test binary serve as the fleet's child processes: the
// smoke test spawns it with a role sub-command, as the benchmark does.
func TestMain(m *testing.M) {
	if runChild(os.Args[1:]) {
		return
	}
	os.Exit(m.Run())
}

// benchmarkSpec is the part of BENCHMARK.json the smoke test checks.
type benchmarkSpec struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

// TestSmokeTinyFleet boots all three processes at a tiny scale, runs one
// untraced and one traced window, and checks that every metric named in
// BENCHMARK.json is emitted with its unit, and nothing else.
func TestSmokeTinyFleet(t *testing.T) {
	if testing.Short() {
		t.Skip("boots a fleet")
	}
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
	}
	data := tpcw.DefaultConfig()
	data.Items, data.Customers = 100, 288
	for _, c := range []struct {
		workload string
		trace    bool
		want     map[string]string
	}{
		{"ordering", false, units(spec.EndToEnd)},
		{"point", true, units(spec.PerLayer)},
	} {
		o := options{
			workload: c.workload, seed: 1, seconds: 2, trace: c.trace, data: data,
			sessions: 2, setups: 2, warmup: 300 * time.Millisecond, window: time.Second,
			root: t.TempDir(),
		}
		res, err := run(o)
		if err != nil {
			t.Fatalf("%s: %v", c.workload, err)
		}
		var out bytes.Buffer
		if err := res.write(&out); err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var last map[string]json.RawMessage
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
			t.Fatalf("%s: last line is not JSON: %v", c.workload, err)
		}
		if got := sortedKeys(last); !reflect.DeepEqual(got, []string{"attempted", "correct", "failed", "metrics"}) {
			t.Errorf("%s: result keys %v", c.workload, got)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("%s: correct=%v failed=%d attempted=%d\n%s", c.workload, res.Correct, res.Failed, res.Attempted, out.String())
		}
		got := map[string]string{}
		for name, m := range res.Metrics {
			got[name] = m.Unit
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s trace=%v: metrics\n got %v\nwant %v", c.workload, c.trace, got, c.want)
		}
	}
}

func units(ms []struct{ Name, Unit string }) map[string]string {
	out := map[string]string{}
	for _, m := range ms {
		out[m.Name] = m.Unit
	}
	return out
}

func sortedKeys(m map[string]json.RawMessage) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
