package main

// -compare a.json b.json: the one rule for "did it get worse". a is the
// parent, b the change; both are suite result files of the same seed.

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// bound is an end-to-end metric's regression bound: the share of the
// parent's value by which it may worsen. BENCHMARK.json lists the same
// bounds for the metrics the driver checks; the rest are counts that
// repeat exactly in a fixed-count run, and the p99. The timings and
// setup_s carry the widest bound the driver allows, because runs of one
// commit on the reference box spread by up to 18% (README).
type bound struct {
	name   string
	share  float64
	higher bool // higher is better
}

var bounds = []bound{
	{"setup_s", 0.25, false},
	{"ops_per_s", 0.25, true},
	{"wall_p50_ms", 0.25, false},
	{"wall_p95_ms", 0.25, false},
	{"wall_p99_ms", 0.25, false},
	{"first_page_p50_ms", 0.25, false},
	{"sim_mean_ms", 0.01, false},
	{"sim_p99_ms", 0.01, false},
	{"store_bytes_per_op", 0.01, false},
	{"store_reqs_per_op", 0.01, false},
	{"mem_settled_mb", 0.15, false},
	{"fail_share", 0, false},
}

type suiteFile struct {
	Seed uint64             `json:"seed"`
	Runs map[string]*result `json:"runs"`
}

func readSuite(path string) (*suiteFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s suiteFile
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// spread is the interquartile distance of a metric's segments as a
// share of their median.
func spread(m metric) float64 {
	if len(m.Segments) < 4 {
		return 0
	}
	lo, hi := quartiles(m.Segments)
	return ratio(hi-lo, median(m.Segments))
}

// verdict applies one bound to the parent's and the change's metric.
func verdict(b bound, parent, change metric) string {
	worse := change.Value - parent.Value // positive = worse, for lower-is-better
	if b.higher {
		worse = -worse
	}
	allowed := b.share * parent.Value
	if spread(parent) > b.share || spread(change) > b.share {
		// Too noisy to call, unless every part of the change beats
		// every part of the parent.
		ps, cs := append([]float64(nil), parent.Segments...), append([]float64(nil), change.Segments...)
		sort.Float64s(ps)
		sort.Float64s(cs)
		if len(ps) > 0 && len(cs) > 0 && ((b.higher && cs[0] > ps[len(ps)-1]) || (!b.higher && cs[len(cs)-1] < ps[0])) {
			return "better"
		}
		return "unresolved"
	}
	switch {
	case worse > allowed:
		return "worse"
	case -worse > allowed && worse != 0:
		return "better"
	}
	return "same"
}

// compareFiles prints one row per (workload, end-to-end metric) and
// returns 1 if any row is worse or unresolved.
func compareFiles(a, b string) int {
	pa, err := readSuite(a)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	pb, err := readSuite(b)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	code := 0
	if pa.Seed != pb.Seed {
		fmt.Printf("note: seeds differ (%d vs %d): counts that repeat exactly on one seed will not match\n", pa.Seed, pb.Seed)
	}
	fmt.Printf("%-12s %-20s %14s %14s %8s %8s  %s\n", "workload", "metric", "parent", "change", "delta", "bound", "verdict")
	for _, wl := range workloads() {
		ra, rb := pa.Runs[wl.name], pb.Runs[wl.name]
		if ra == nil || rb == nil {
			fmt.Printf("%-12s missing from one file\n", wl.name)
			code = 1
			continue
		}
		for _, bd := range bounds {
			ma, mb := ra.Metrics[bd.name], rb.Metrics[bd.name]
			v := verdict(bd, ma, mb)
			if v == "worse" || v == "unresolved" {
				code = 1
			}
			fmt.Printf("%-12s %-20s %14.4f %14.4f %+7.1f%% %7.0f%%  %s\n", wl.name, bd.name, ma.Value, mb.Value,
				100*ratio(mb.Value-ma.Value, ma.Value), 100*bd.share, v)
		}
	}
	return code
}
