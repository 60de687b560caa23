package main

import (
	"sort"

	"sciera/internal/beacon"
	"sciera/internal/simnet"
	"sciera/internal/telemetry"
)

// perLayer lists every metric a traced run reports, with its unit, in
// the order BENCHMARK.json declares them. A layer a workload bypasses
// reports 0. Sources: [c] counts read from exported state after the
// run, [s] span sums, [p] CPU-profile shares (see README.md).
var perLayer = []struct{ name, unit string }{
	{"trace.traced_ops_per_s", "1/s"},
	{"trace.untraced_ops_per_s", "1/s"},
	{"trace.overhead_frac", "ratio"},
	{"simnet.events", "count"},
	{"simnet.peak_pending", "count"},
	{"simnet.ns_per_event", "ns"},
	{"simnet.self_cpu_frac", "ratio"},
	{"router.received", "count"},
	{"router.forwarded", "count"},
	{"router.drops", "count"},
	{"router.self_cpu_frac", "ratio"},
	{"slayers.self_cpu_frac", "ratio"},
	{"spath.self_cpu_frac", "ratio"},
	{"scrypto.self_cpu_frac", "ratio"},
	{"dispatcher.forwarded", "count"},
	{"dispatcher.demux_miss_frac", "ratio"},
	{"dispatcher.self_cpu_frac", "ratio"},
	{"scmp.self_cpu_frac", "ratio"},
	{"pan.self_cpu_frac", "ratio"},
	{"multiping.new_s", "s"},
	{"multiping.run_s", "s"},
	{"multiping.merge_s", "s"},
	{"multiping.records", "count"},
	{"multiping.self_cpu_frac", "ratio"},
	{"scenario.iprtt_calls", "count"},
	{"scenario.iprtt_s", "s"},
	{"scenario.iprtt_us", "us"},
	{"topology.self_cpu_frac", "ratio"},
	{"experiments.figures_s", "s"},
	{"core.converge_s", "s"},
	{"core.clone_s", "s"},
	{"core.set_link_up_ms", "ms"},
	{"core.paths_cold_us", "us"},
	{"core.paths_warm_ns", "ns"},
	{"core.self_cpu_frac", "ratio"},
	{"beacon.originated", "count"},
	{"beacon.propagated", "count"},
	{"beacon.pruned", "count"},
	{"beacon.registered", "count"},
	{"beacon.filtered", "count"},
	{"beacon.register_frac", "ratio"},
	{"beacon.verified", "count"},
	{"beacon.verify_failed", "count"},
	{"beacon.self_cpu_frac", "ratio"},
	{"pathdb.core_segments", "count"},
	{"pathdb.down_segments", "count"},
	{"pathdb.self_cpu_frac", "ratio"},
	{"combinator.paths_per_lookup", "count"},
	{"combinator.self_cpu_frac", "ratio"},
	{"segment.self_cpu_frac", "ratio"},
	{"cppki.chain_cache_hit_frac", "ratio"},
	{"cppki.self_cpu_frac", "ratio"},
	{"traffic.flows_started", "count"},
	{"traffic.flows_completed", "count"},
	{"traffic.packets_sent", "count"},
	{"traffic.packets_delivered", "count"},
	{"traffic.peak_active_flows", "count"},
	{"traffic.self_cpu_frac", "ratio"},
	{"telemetry.self_cpu_frac", "ratio"},
	{"other.self_cpu_frac", "ratio"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_cpu_frac", "ratio"},
	{"runtime.self_cpu_frac", "ratio"},
}

// layerReport collects one traced run's per-layer values by name.
type layerReport map[string]float64

func (r layerReport) metrics() map[string]metric {
	out := make(map[string]metric, len(perLayer))
	for _, m := range perLayer {
		out[m.name] = metric{r[m.name], m.unit}
	}
	return out
}

// ratio is a/b, or 0 when b is 0 (a layer the workload bypassed).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// addShares records the profile's CPU shares. Modules without a metric
// of their own are pooled into other.self_cpu_frac.
func (r layerReport) addShares(shares map[string]float64) {
	mods := make([]string, 0, len(shares))
	for m := range shares {
		mods = append(mods, m)
	}
	sort.Strings(mods) // fixed summation order
	for _, m := range mods {
		name := m + ".self_cpu_frac"
		if !hasPerLayer[name] {
			name = "other.self_cpu_frac"
		}
		r[name] += shares[m]
	}
}

var hasPerLayer = func() map[string]bool {
	set := make(map[string]bool, len(perLayer))
	for _, m := range perLayer {
		set[m.name] = true
	}
	return set
}()

// addTelemetry reads the data-plane and control-plane counters of a
// network's (or several merged networks') telemetry snapshot.
func (r layerReport) addTelemetry(s telemetry.Snapshot) {
	r["router.received"] = s.Total("sciera_router_received_total")
	r["router.forwarded"] = s.Total("sciera_router_forwarded_total")
	r["router.drops"] = s.Total("sciera_router_mac_failures_total") +
		s.Total("sciera_router_ingress_drops_total") +
		s.Total("sciera_router_noroute_drops_total") +
		s.Total("sciera_router_linkdown_drops_total") +
		s.Total("sciera_router_parse_failures_total")
	r["dispatcher.forwarded"] = s.Total("sciera_dispatcher_forwarded_total")
	r["dispatcher.demux_miss_frac"] = ratio(s.Total("sciera_dispatcher_demux_misses_total"),
		s.Total("sciera_dispatcher_demux_hits_total")+s.Total("sciera_dispatcher_demux_misses_total"))
	r["beacon.originated"] = s.Total("sciera_beacon_originated_total")
	r["beacon.propagated"] = s.Total("sciera_beacon_propagated_total")
	r["beacon.pruned"] = s.Total("sciera_beacon_pruned_total")
	r["beacon.registered"] = s.Total("sciera_beacon_registered_total")
	r["beacon.filtered"] = s.Total("sciera_beacon_filtered_total")
	r["beacon.verified"] = s.Total("sciera_beacon_verified_total")
	r["beacon.verify_failed"] = s.Total("sciera_beacon_verify_failed_total")
	// Useful outcome per attempt: beacons that ended up registered, per
	// beacon created or extended.
	r["beacon.register_frac"] = ratio(r["beacon.registered"], r["beacon.originated"]+r["beacon.propagated"])
	hits, misses := s.Total("sciera_cppki_chain_cache_hits_total"), s.Total("sciera_cppki_chain_cache_misses_total")
	r["cppki.chain_cache_hit_frac"] = ratio(hits, hits+misses)
}

// addRegistry records the segment counts of a path registry.
func (r layerReport) addRegistry(reg *beacon.Registry) {
	r["pathdb.core_segments"] = float64(reg.Core.Len())
	r["pathdb.down_segments"] = float64(reg.Down.Len())
}

// addSims records scheduler load summed over simulators (peak: the
// largest single simulator's).
func (r layerReport) addSims(sims ...*simnet.Sim) {
	for _, s := range sims {
		r["simnet.events"] += float64(s.ProcessedEvents())
		r["simnet.peak_pending"] = max(r["simnet.peak_pending"], float64(s.PeakPending()))
	}
}

// addPhase records GC activity and the tracing overhead: the traced
// phase against an untraced run of the same work in the same process.
func (r layerReport) addPhase(traced phase, tracedOps int64, untraced phase, untracedOps int64) {
	r["runtime.gc_cycles"] = float64(traced.gcCycles)
	r["runtime.gc_cpu_frac"] = ratio(traced.gcCPU, traced.totalCPU)
	t, u := traced.opsPerSec(tracedOps), untraced.opsPerSec(untracedOps)
	r["trace.traced_ops_per_s"] = t
	r["trace.untraced_ops_per_s"] = u
	r["trace.overhead_frac"] = 1 - t/u
}
