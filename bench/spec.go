package main

// The benchmark's declarations: workload names, end-to-end metrics with
// their regression bounds, and the per-layer metric names. BENCHMARK.json
// at the repository root repeats them for the driver; the self-test fails
// when the two disagree, so this file is the single place to edit.

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only
}

const (
	wlPaper49    = "paper49"
	wlGrid225    = "grid225"
	wlMobile100  = "mobile100"
	wlHotspot49  = "hotspot49"
	wlObserved49 = "observed49"
	wlServeMix   = "serve_mix"
)

var workloadSpecs = []workloadSpec{
	{wlPaper49, "Table R-1 operating point, 7x7 grid, all five schemes, PDR 1.0 and no drops: the paper's scale, where event-list, MAC, routing-table and pooling costs weigh most against radio (about 40% of wall)"},
	{wlGrid225, "15x15 static grid, clnlr and flood: radio-bound (arrival and carrier arithmetic over a read-only audible-set memo), 20 MiB working set; radio hot-path work must show here and barely elsewhere"},
	{wlMobile100, "10x10 perturbed grid with waypoint mobility, churn and burst loss: every step invalidates the audible-set memo and routing lives in RERR and re-discovery, the write side of grid225's caches"},
	{wlHotspot49, "paper49 with all flows sinking at a gateway at 20 flows x 8 pkt/s: saturated MAC queue-full, retry and drop paths and link-failure handling that paper49 (PDR 1.0) never touches"},
	{wlObserved49, "paper49/clnlr with each seed run plain and then with collector, journey recorder and auditor all on: the cost of the instruments on the same warm engine"},
	{wlServeMix, "meshsimd handler in-process under 2 closed-loop clients: 24 misses, 20000 Zipf memory hits, a 3-scheme sweep submitted twice, disk-tier hits: miss, hit and sweep costs in a study user's mix"},
}

// Every workload reports every end-to-end metric. An operation is one
// engine run (one plain+instrumented pair on observed49, one HTTP request
// on serve_mix); README.md has the per-workload definitions. The timing
// bounds are sized from the reference box's noisy phases, in which whole
// runs read 10-25% slow; in its quiet phases spreads are 1-5%.
var endToEndSpecs = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"sim_s_per_wall_s", "sim-s/s", "higher", 0.25},
	{"op_p50_ms", "ms", "lower", 0.25},
	{"op_p90_ms", "ms", "lower", 0.25},
	{"allocs_per_op", "allocs", "lower", 0.15},
	{"live_heap_mb", "MiB", "lower", 0.20},
}

// Per-layer metrics, read in the traced pass. Counts repeat exactly for a
// seed; _ns/_us/_ms/_s are host time; traffic.* and journey.* are
// simulated time. A metric whose layer a workload does not run reads 0
// there (serve.* and experiments.* outside serve_mix).
var perLayerSpecs = []metricSpec{
	{"des.events", "count", "lower", 0},
	{"des.pending_hw", "count", "lower", 0},
	{"des.ns_per_event", "ns", "lower", 0},
	{"des.hold_ns", "ns", "lower", 0},

	{"radio.transmissions", "count", "lower", 0},
	{"radio.deliveries", "count", "lower", 0},
	{"radio.corruptions", "count", "lower", 0},
	{"radio.impair_drops", "count", "lower", 0},
	{"radio.fanout", "ratio", "lower", 0},
	{"radio.decode_ratio", "ratio", "higher", 0},
	{"radio.audible_rebuilds", "count", "lower", 0},
	{"radio.tx_inflight_hw", "count", "lower", 0},
	{"radio.tx_ns", "ns", "lower", 0},
	{"radio.tx_overlap_ns", "ns", "lower", 0},
	{"radio.rebuild_ns", "ns", "lower", 0},

	{"mac.tx_data", "count", "lower", 0},
	{"mac.tx_broadcast", "count", "lower", 0},
	{"mac.tx_ack", "count", "lower", 0},
	{"mac.retries", "count", "lower", 0},
	{"mac.drop_queue_full", "count", "lower", 0},
	{"mac.drop_retry_limit", "count", "lower", 0},
	{"mac.rx_corrupted", "count", "lower", 0},
	{"mac.first_try_ratio", "ratio", "higher", 0},
	{"mac.exchange_ns", "ns", "lower", 0},
	{"mac.broadcast_ns", "ns", "lower", 0},

	{"routing.discoveries_started", "count", "lower", 0},
	{"routing.discovery_ratio", "ratio", "higher", 0},
	{"routing.rreq_per_discovery", "ratio", "lower", 0},
	{"routing.rreq_forwarded", "count", "lower", 0},
	{"routing.rreq_suppressed", "count", "higher", 0},
	{"routing.forward_ratio", "ratio", "lower", 0},
	{"routing.rrep_sent", "count", "lower", 0},
	{"routing.rerr_sent", "count", "lower", 0},
	{"routing.hello_sent", "count", "lower", 0},
	{"routing.data_forwarded", "count", "lower", 0},
	{"routing.drop_no_route", "count", "lower", 0},
	{"routing.drop_link_fail", "count", "lower", 0},
	{"routing.drop_buffer_full", "count", "lower", 0},
	{"routing.table_lookup_ns", "ns", "lower", 0},
	{"routing.table_update_ns", "ns", "lower", 0},
	{"routing.dupcache_seen_ns", "ns", "lower", 0},
	{"routing.nl_ns", "ns", "lower", 0},
	{"core.forward_prob_ns", "ns", "lower", 0},

	{"traffic.sent", "count", "higher", 0},
	{"traffic.delivered", "count", "higher", 0},
	{"traffic.pdr", "ratio", "higher", 0},
	{"traffic.delay_p50_ms", "ms", "lower", 0},
	{"traffic.delay_p99_ms", "ms", "lower", 0},
	{"pkt.pool_cycle_ns", "ns", "lower", 0},
	{"pkt.clone_ns", "ns", "lower", 0},
	{"pkt.pool_drops", "count", "lower", 0},

	{"journey.share_routing", "ratio", "lower", 0},
	{"journey.share_queue", "ratio", "lower", 0},
	{"journey.share_access", "ratio", "lower", 0},
	{"journey.share_retry", "ratio", "lower", 0},
	{"journey.share_air", "ratio", "higher", 0},
	{"journey.mean_hops", "count", "lower", 0},

	{"sim.cold_run_ms", "ms", "lower", 0},
	{"sim.cold_over_warm", "ratio", "lower", 0},
	{"sim.report_encode_us", "us", "lower", 0},
	{"sim.observer_cost_ratio", "ratio", "lower", 0},
	{"metrics.cost_ratio", "ratio", "lower", 0},
	{"audit.cost_ratio", "ratio", "lower", 0},
	{"journey.cost_ratio", "ratio", "lower", 0},

	{"experiments.cells_per_s_w1", "1/s", "higher", 0},
	{"experiments.cells_per_s_w2", "1/s", "higher", 0},
	{"experiments.parallel_eff", "ratio", "higher", 0},
	{"experiments.checkpoint_ms", "ms", "lower", 0},
	{"experiments.resume_ms", "ms", "lower", 0},

	{"serve.miss_p50_ms", "ms", "lower", 0},
	{"serve.miss_overhead_ms", "ms", "lower", 0},
	{"serve.hit_p50_us", "us", "lower", 0},
	{"serve.hit_p99_us", "us", "lower", 0},
	{"serve.hit_disk_us", "us", "lower", 0},
	{"serve.sweep_cold_s", "s", "lower", 0},
	{"serve.sweep_hit_us", "us", "lower", 0},
	{"serve.engine_runs", "count", "lower", 0},
	{"serve.cache_hit_ratio", "ratio", "higher", 0},
	{"serve.shed", "count", "lower", 0},
	{"serve.report_bytes", "bytes", "lower", 0},
	{"serve.req_per_s", "1/s", "higher", 0},

	{"ledger.des_share", "ratio", "lower", 0},
	{"ledger.radio_share", "ratio", "lower", 0},
	{"ledger.mac_share", "ratio", "lower", 0},
	{"ledger.coverage", "ratio", "higher", 0},
	{"trace.overhead_ratio", "ratio", "lower", 0},
}

func specByName(specs []metricSpec) map[string]metricSpec {
	m := make(map[string]metricSpec, len(specs))
	for _, s := range specs {
		m[s.Name] = s
	}
	return m
}
