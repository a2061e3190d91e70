package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"
)

// smallSizes is the 1/200-scale world of the smoke test: the shapes of
// the README's world, a few hundred rows per table.
func smallSizes() sizes {
	return sizes{
		OrdersFiles: 8, OrdersRowsPerFile: 128,
		FactFiles: 4, FactRowsPerFile: 250, DimRows: 64,
		WideFiles: 32, WideRowsPerFile: 128,
		RangeSpan: 100, InsertRows: 8, TxnRows: 2,
		OptimizeEvery: 5,
	}
}

func smoke(t *testing.T, workload string, seed uint64, traced bool) *result {
	t.Helper()
	res, err := runWorkload(config{workload: workload, seed: seed, scale: 200, traced: traced,
		setups: 1, sz: smallSizes(), outDir: t.TempDir()})
	if err != nil {
		t.Fatalf("%s seed %d traced=%v: %v", workload, seed, traced, err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("%s seed %d traced=%v: %d of %d ops failed: %+v", workload, seed, traced, res.Failed, res.Attempted, res.Failures)
	}
	return res
}

type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// lastLineMetrics parses what a run prints for the driver.
func lastLineMetrics(t *testing.T, res *result) map[string]metric {
	t.Helper()
	var line struct {
		Correct   bool
		Attempted int
		Failed    int
		Metrics   map[string]metric
	}
	if err := json.Unmarshal([]byte(lastLine(res)), &line); err != nil {
		t.Fatal(err)
	}
	if !line.Correct || line.Attempted < 1 || line.Failed != 0 {
		t.Fatalf("last line: %+v", line)
	}
	return line.Metrics
}

// TestSmoke runs all five workloads at 1/200 scale, untraced and
// traced, and checks that every metric BENCHMARK.json and the README
// name is emitted exactly once with its unit and a finite value, that
// the counts that must repeat exactly do, and that another seed moves
// the op stream but not the failure share.
func TestSmoke(t *testing.T) {
	spec := readBenchmarkJSON(t)
	if len(spec.Workloads) != len(workloads()) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads()))
	}
	exact := []string{"sim_mean_ms", "sim_p99_ms", "store_bytes_per_op", "store_reqs_per_op", "fail_share"}
	for i, wl := range workloads() {
		if spec.Workloads[i].Name != wl.name {
			t.Errorf("BENCHMARK.json workload %d is %q, want %q", i, spec.Workloads[i].Name, wl.name)
		}
		t.Run(wl.name, func(t *testing.T) {
			a, b := smoke(t, wl.name, 1, false), smoke(t, wl.name, 1, false)
			other := smoke(t, wl.name, 2, false)
			traced := smoke(t, wl.name, 1, true)

			for _, bd := range bounds { // the README's eleven end-to-end metrics
				m, ok := a.Metrics[bd.name]
				if !ok || m.Unit == "" || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("end-to-end metric %s: %+v (present %v)", bd.name, m, ok)
				}
			}
			for _, name := range exact {
				if !reflect.DeepEqual(a.Metrics[name], b.Metrics[name]) {
					t.Errorf("%s differs between two runs of seed 1: %v vs %v", name, a.Metrics[name], b.Metrics[name])
				}
			}
			if other.Metrics["fail_share"].Value != 0 {
				t.Errorf("seed 2 fail_share = %v", other.Metrics["fail_share"].Value)
			}

			got := lastLineMetrics(t, a)
			if len(got) != len(spec.EndToEnd) {
				t.Errorf("--trace 0 prints %d metrics, BENCHMARK.json lists %d end-to-end", len(got), len(spec.EndToEnd))
			}
			for _, e := range spec.EndToEnd {
				if m, ok := got[e.Name]; !ok || m.Unit != e.Unit || m.Value <= 0 {
					t.Errorf("end_to_end %s: got %+v (present %v), want unit %q and a value above 0", e.Name, m, ok, e.Unit)
				}
			}
			got = lastLineMetrics(t, traced)
			if len(got) != len(spec.PerLayer) {
				t.Errorf("--trace 1 prints %d metrics, BENCHMARK.json lists %d per-layer", len(got), len(spec.PerLayer))
			}
			for _, e := range spec.PerLayer {
				if m, ok := got[e.Name]; !ok || m.Unit != e.Unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("per_layer %s: got %+v (present %v), want unit %q", e.Name, m, ok, e.Unit)
				}
			}
		})
	}
	for _, e := range spec.EndToEnd {
		found := false
		for _, bd := range bounds {
			if bd.name == e.Name {
				found = true
				if bd.share != e.Bound || bd.higher != (e.Better == "higher") {
					t.Errorf("%s: BENCHMARK.json says bound %v better %s, -compare says %v higher=%v", e.Name, e.Bound, e.Better, bd.share, bd.higher)
				}
			}
		}
		if !found {
			t.Errorf("%s is in BENCHMARK.json but -compare has no bound for it", e.Name)
		}
	}
}

// TestSeedMovesOps: the op stream is a function of the seed.
func TestSeedMovesOps(t *testing.T) {
	for _, wl := range workloads() {
		texts := map[uint64]string{}
		for _, seed := range []uint64{1, 2} {
			w, err := newWorld()
			if err != nil {
				t.Fatal(err)
			}
			in := &inputs{seed: seed, sz: smallSizes()}
			wl.gen(in)
			ops, err := wl.ops(w, in, 0, 0, 10)
			if err != nil {
				t.Fatal(err)
			}
			for i := range ops {
				texts[seed] += describe(&ops[i]) + "\n"
			}
		}
		if texts[1] == texts[2] {
			t.Errorf("%s: seeds 1 and 2 generate the same ops:\n%s", wl.name, texts[1])
		}
	}
}

func TestVerdict(t *testing.T) {
	lower := bound{"wall_p50_ms", 0.10, false}
	higher := bound{"ops_per_s", 0.10, true}
	steady := func(v float64) metric { return metric{Value: v, Segments: []float64{v * 0.99, v, v, v, v * 1.01}} }
	noisy := func(v float64) metric {
		return metric{Value: v, Segments: []float64{v * 0.8, v * 0.85, v, v * 1.15, v * 1.2}}
	}
	for _, c := range []struct {
		b              bound
		parent, change metric
		want           string
	}{
		{lower, steady(10), steady(10.5), "same"},
		{lower, steady(10), steady(11.5), "worse"},
		{lower, steady(10), steady(8), "better"},
		{higher, steady(100), steady(80), "worse"},
		{higher, steady(100), steady(120), "better"},
		{lower, noisy(10), steady(10), "unresolved"},
		{lower, noisy(10), steady(5), "better"}, // every part of the change beats every part of the parent
		{bound{"fail_share", 0, false}, metric{Value: 0}, metric{Value: 0}, "same"},
		{bound{"fail_share", 0, false}, metric{Value: 0}, metric{Value: 0.01}, "worse"},
		{bound{"sim_mean_ms", 0.01, false}, metric{Value: 0}, metric{Value: 0}, "same"},
	} {
		if got := verdict(c.b, c.parent, c.change); got != c.want {
			t.Errorf("%s %v -> %v: got %s, want %s", c.b.name, c.parent.Value, c.change.Value, got, c.want)
		}
	}
}
