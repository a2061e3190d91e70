package biglake

// One benchmark per paper table/figure (DESIGN.md experiment index
// E1–E12) plus the ablation benches A1–A5. Latency-bound experiments
// report simulated milliseconds via b.ReportMetric; CPU-bound ones
// report real time. cmd/benchlake renders the same results as
// paper-style tables.

import (
	"testing"

	"biglake/internal/exp"
)

// BenchmarkE1MetadataCaching reproduces Figure 4: TPC-DS power run
// with the §3.3 metadata cache off and on.
func BenchmarkE1MetadataCaching(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := exp.RunE1(1)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.OverallSpeedup, "overall_speedup_x")
		b.ReportMetric(float64(res.TotalOff.Milliseconds()), "cache_off_sim_ms")
		b.ReportMetric(float64(res.TotalOn.Milliseconds()), "cache_on_sim_ms")
	}
}

// BenchmarkE2VectorizedReader reproduces §3.4's vectorized-reader
// result: real throughput of the two ReadRows pipelines.
func BenchmarkE2VectorizedReader(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := exp.RunE2(60000)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.ThroughputGain, "throughput_gain_x")
	}
}

// BenchmarkE3SparkStats reproduces §3.4's external-engine improvement
// from CreateReadSession statistics (join reordering + DPP).
func BenchmarkE3SparkStats(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := exp.RunE3(1)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.OverallSpeedup, "stats_speedup_x")
	}
}

// BenchmarkE4SparkParity reproduces §3.4's TPC-H price-performance
// parity: Read API vs direct object-store reads.
func BenchmarkE4SparkParity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := exp.RunE4(1)
		if err != nil {
			b.Fatal(err)
		}
		worst := 1e9
		for _, r := range res.Rows {
			if r.Ratio < worst {
				worst = r.Ratio
			}
		}
		b.ReportMetric(worst, "worst_direct_over_api_x")
	}
}

// BenchmarkE5CommitThroughput reproduces §3.5's BLMT commit-throughput
// advantage over object-store-committed table formats.
func BenchmarkE5CommitThroughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := exp.RunE5(30)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.BLMTPerSecond, "blmt_commits_per_s")
		b.ReportMetric(res.ObjStorePerSecond, "objstore_commits_per_s")
		b.ReportMetric(res.ThroughputAdvantage, "advantage_x")
	}
}

// BenchmarkE6ObjectTable reproduces §4.1: inventorying a big bucket
// through an object table vs direct listing, plus the 1% sample.
func BenchmarkE6ObjectTable(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := exp.RunE6(5000)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.ListSpeedup, "list_speedup_x")
		b.ReportMetric(float64(res.SampleTime.Milliseconds()), "sample_sim_ms")
	}
}

// BenchmarkE7DistributedInference reproduces Figure 7: worker memory
// with the preprocess/infer split vs colocated execution.
func BenchmarkE7DistributedInference(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := exp.RunE7(16)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.MemoryReduction, "peak_memory_reduction_x")
		b.ReportMetric(res.WireReductionFactor, "image_over_tensor_x")
	}
}

// BenchmarkE8InferenceModes reproduces §4.2's in-engine vs external
// inference trade-off under burst.
func BenchmarkE8InferenceModes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := exp.RunE8(5, 8)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.RemotePenalty, "remote_burst_penalty_x")
	}
}

// BenchmarkE9OmniParity reproduces §5.4: TPC-H on GCP vs AWS data
// planes.
func BenchmarkE9OmniParity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := exp.RunE9(1)
		if err != nil {
			b.Fatal(err)
		}
		worst := 0.0
		for _, r := range res.Rows {
			if r.Ratio > worst {
				worst = r.Ratio
			}
		}
		b.ReportMetric(worst, "worst_aws_over_gcp_x")
	}
}

// BenchmarkE10CrossCloudQuery reproduces §5.6.1: cross-cloud join
// egress with filter pushdown (the DisablePushdown arm is ablation
// A5).
func BenchmarkE10CrossCloudQuery(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := exp.RunE10(100, 1000)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.EgressReduction, "egress_reduction_x")
		b.ReportMetric(float64(res.PushdownTime.Milliseconds()), "pushdown_sim_ms")
		b.ReportMetric(float64(res.FullTime.Milliseconds()), "full_ship_sim_ms")
	}
}

// BenchmarkE11CCMV reproduces §5.6.2: incremental vs full cross-cloud
// materialized-view refresh.
func BenchmarkE11CCMV(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := exp.RunE11(5, 100)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.EgressReduction, "egress_reduction_x")
	}
}

// BenchmarkE12Governance reproduces §3.2: identical governed results
// through the engine, the Read API, and an external engine, with the
// zero-trust boundary held against a hostile client.
func BenchmarkE12Governance(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := exp.RunE12()
		if err != nil {
			b.Fatal(err)
		}
		ok := 0.0
		if res.RowsAgree && res.MaskingAgrees && res.HostileReadDenied && res.DeniedColumnFails {
			ok = 1.0
		}
		b.ReportMetric(ok, "boundary_holds")
	}
}

// BenchmarkA1CacheGranularity: file-level statistics vs Hive-style
// partition-only pruning (DESIGN.md ablation A1).
func BenchmarkA1CacheGranularity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := exp.RunA1(1)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.GranularityGain, "file_stat_gain_x")
	}
}

// BenchmarkA2GovernancePlacement: governance inside the Read API
// boundary vs client-side enforcement at the untrusted engine
// (ablation A2).
func BenchmarkA2GovernancePlacement(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := exp.RunA2(4000)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.ExposureReduction, "exposure_reduction_x")
	}
}

// BenchmarkA3BaselineReconcile: tail+baseline snapshot reads vs full
// log replay (ablation A3).
func BenchmarkA3BaselineReconcile(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := exp.RunA3(2000)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Speedup, "baseline_speedup_x")
	}
}

// BenchmarkA4WireEncoding: dictionary/RLE retention on ReadRows
// payloads vs fully decoded batches (ablation A4, the §3.4 future-work
// item).
func BenchmarkA4WireEncoding(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := exp.RunA4(20000)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Reduction, "payload_reduction_x")
	}
}

// BenchmarkE13Availability: TPC-H under injected object-store faults —
// the resilience layer's success rate at a 3% per-op fault rate vs the
// no-retry baseline (DESIGN.md experiment E13).
func BenchmarkE13Availability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := exp.RunE13(1, 20)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range res.Rows {
			if r.FaultRate == 0.03 {
				switch r.Arm {
				case "resilient":
					b.ReportMetric(100*r.SuccessRate, "resilient_success_pct")
				case "no-retry":
					b.ReportMetric(100*r.SuccessRate, "noretry_success_pct")
				}
			}
		}
	}
}

// BenchmarkE15VectorizedExec: typed hash kernels + morsel-driven
// join/aggregation, morsel-worker scaling, and the generation-keyed
// scan cache's cold/warm effect (DESIGN.md experiment E15). Real CPU
// time.
func BenchmarkE15VectorizedExec(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := exp.RunE15(400000)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.VectorizedTime.Microseconds()), "vectorized_us")
		for _, r := range res.Scaling {
			if r.Workers == 4 {
				b.ReportMetric(r.Speedup, "scaling_w4_x")
			}
		}
		b.ReportMetric(float64(res.CacheColdSim.Milliseconds()), "cache_cold_sim_ms")
		b.ReportMetric(float64(res.CacheWarmSim.Milliseconds()), "cache_warm_sim_ms")
		b.ReportMetric(float64(res.CacheHits), "cache_hits")
	}
}

// BenchmarkE14Recovery: crash recovery — journal replay time (simulated
// wall clock) and orphan-GC bytes at the 400-commit journal length
// (DESIGN.md experiment E14).
func BenchmarkE14Recovery(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := exp.RunE14(1)
		if err != nil {
			b.Fatal(err)
		}
		last := res.Rows[len(res.Rows)-1]
		b.ReportMetric(last.RecoverySimMS, "recovery_sim_ms")
		b.ReportMetric(float64(last.GCBytes), "gc_bytes")
	}
}

// BenchmarkE16Observability: trace-span attribution of the E15 star
// join — per-stage join/aggregate wall time and the scan cache's
// sim-I/O delta, all read off the observability layer (DESIGN.md
// experiment E16).
func BenchmarkE16Observability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := exp.RunE16(400000)
		if err != nil {
			b.Fatal(err)
		}
		for _, st := range res.Stages {
			if st.Name == "join" || st.Name == "aggregate" {
				b.ReportMetric(float64(st.Wall.Microseconds()), st.Name+"_stage_us")
			}
		}
		b.ReportMetric(float64(res.ColdScanSim.Milliseconds()), "cold_scan_sim_ms")
		b.ReportMetric(float64(res.WarmGets), "warm_gets")
	}
}

// BenchmarkE18QueryService: the multi-tenant query service under a
// seeded open-loop overload sweep — goodput retention at 4x the
// admission cap and max/min per-tenant fairness across equal-weight
// tenants (DESIGN.md experiment E18).
func BenchmarkE18QueryService(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := exp.RunE18(1)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.PeakGoodput, "peak_goodput_qps")
		b.ReportMetric(res.GoodputMaxRatio, "goodput_4x_ratio")
		b.ReportMetric(res.EqualFairRatio, "fair_max_min_x")
	}
}

// BenchmarkE19Integrity: the end-to-end integrity sweep — silent
// corruption at rest and in flight, typed containment, budgeted scrub,
// and replica repair restoring full availability (DESIGN.md experiment
// E19).
func BenchmarkE19Integrity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := exp.RunE19(1)
		if err != nil {
			b.Fatal(err)
		}
		if res.WrongAnswers != 0 {
			b.Fatalf("silent wrong answers: %d", res.WrongAnswers)
		}
		var detected, damaged, scrubBytes int
		for _, r := range res.Rows {
			damaged += r.Damaged
			detected += int(r.DetectionRate * float64(r.Damaged))
			scrubBytes += int(r.ScrubBytes)
		}
		b.ReportMetric(float64(detected)/float64(damaged), "detection_rate")
		b.ReportMetric(float64(scrubBytes)/float64(len(res.Rows)), "scrub_bytes_per_rate")
		restored := 0.0
		if res.RestoredAtOnePercent {
			restored = 1
		}
		b.ReportMetric(restored, "repair_restores_1pct")
	}
}
