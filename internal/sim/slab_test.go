package sim

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"testing"

	"clnlr/internal/des"
	"clnlr/internal/pkt"
	"clnlr/internal/rng"
	"clnlr/internal/routing"
	"clnlr/internal/topo"
)

// liveHeapProfile, when set (`make profile-largen` sets it), makes
// TestEngineHeapScalesWithNeighbourhood run its 900-node case over the
// full 10 s + 20 s window of ROADMAP item 8(b)'s command and write a heap
// profile while the engine is still referenced: `go tool pprof
// -sample_index=inuse_space -top` on it shows what a live engine is made
// of, which a profile written at process exit cannot.
var liveHeapProfile = flag.String("liveheap", "", "write a heap profile of the live 900-node engine to this file")

// heapAllocMiB is HeapAlloc after two collections, as the repository
// benchmark's live_heap_mb measures it.
func heapAllocMiB() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// gridShape is the benchmark's paper49 scenario (10 s sessions, so
// discovery keeps happening) stretched to rows×cols at the same 143 m
// pitch and the given load.
func gridShape(rows, cols int, areaM float64, flows int, rate float64, measure des.Time) Scenario {
	sc := DefaultScenario()
	sc.SessionTime = 10 * des.Second
	sc.Rows, sc.Cols, sc.AreaM, sc.Flows, sc.PacketRate = rows, cols, areaM, flows, rate
	sc.Measure = measure
	return sc
}

// TestEngineHeapScalesWithNeighbourhood bounds what a warm engine keeps
// alive, measured as the benchmark measures live_heap_mb: per-node state
// is a 4-byte index per node of the network plus slabs sized by the
// destinations and neighbours the node actually met and a duplicate
// cache sized by the floods it has live at once, so an engine is far below
// the N² × (136 + 64 + 40 + 32) bytes that payload arrays preallocated per
// node ID cost (19.5 MiB at 225 nodes, 261 MiB at 900). The 225- and
// 900-node bounds are about 1.5× the logged figures (3.3 and 30.1 MiB):
// they fail on a per-origin or per-ID store creeping back. DESIGN §8
// quotes the logged figures.
func TestEngineHeapScalesWithNeighbourhood(t *testing.T) {
	for _, tc := range []struct {
		sc       Scenario
		schemes  []Scheme
		boundMiB float64
	}{
		{gridShape(7, 7, 1000, 10, 4, 20*des.Second), []Scheme{SchemeCLNLR, SchemeFlood}, 1},
		// grid225: both schemes over several seeds, as the workload runs them.
		{gridShape(15, 15, 2142.857, 20, 4, 20*des.Second), []Scheme{SchemeCLNLR, SchemeFlood}, 5},
		// ROADMAP item 8(b)'s field (cut to a 2 s + 6 s window below).
		{gridShape(30, 30, 4437, 40, 2, 20*des.Second), []Scheme{SchemeCLNLR}, 45},
	} {
		n := tc.sc.NodeCount()
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			before := heapAllocMiB()
			eng := NewEngine()
			for i := 0; i < 2*len(tc.schemes); i++ {
				sc := tc.sc.WithScheme(tc.schemes[i%len(tc.schemes)])
				sc.Seed = uint64(1 + i/len(tc.schemes))
				if n == 900 && *liveHeapProfile == "" {
					sc.Warmup, sc.Measure = 2*des.Second, 6*des.Second
				}
				if _, err := eng.Run(sc); err != nil {
					t.Fatal(err)
				}
			}
			live := heapAllocMiB() - before
			if n == 900 && *liveHeapProfile != "" {
				f, err := os.Create(*liveHeapProfile)
				if err != nil {
					t.Fatal(err)
				}
				if err := pprof.Lookup("heap").WriteTo(f, 0); err != nil {
					t.Fatal(err)
				}
				if err := f.Close(); err != nil {
					t.Fatal(err)
				}
			}
			routes := 0
			for _, nd := range eng.nodes {
				routes += nd.Agent.TableSize()
			}
			runtime.KeepAlive(eng)
			t.Logf("%d nodes: HeapAlloc of the warm engine %.2f MiB (bound %v), %.1f routes per node",
				n, live, tc.boundMiB, float64(routes)/float64(n))
			if live > tc.boundMiB {
				t.Errorf("%d nodes: warm engine keeps %.2f MiB alive, bound %v MiB", n, live, tc.boundMiB)
			}
		})
	}
}

// TestWarmResetClearsOnlyWhatWasUsed: Reset, Crash and Recover clear the
// slab entries a node used, not N slots, so what must hold is that
// nothing of the previous run survives in an index: on an engine whose
// slabs were filled by another seed (another perturbed placement, other
// flows, other crash times — so other routes, rings and neighbours in
// another order), a run must equal the cold run of the same scenario in
// its Result and in every node's table, entry for entry.
func TestWarmResetClearsOnlyWhatWasUsed(t *testing.T) {
	sc := quickScenario()
	sc.Topology = TopoPerturbedGrid
	sc.SessionTime = 3 * des.Second
	sc.Measure = 8 * des.Second
	sc.Faults.MeanUpTime = 4 * des.Second
	sc.Faults.MeanDownTime = des.Second
	for _, scheme := range []Scheme{SchemeCLNLR2, SchemeFlood} {
		sc.Scheme = scheme
		warm := NewEngine()
		for seed := uint64(1); seed <= 3; seed++ {
			sc.Seed = seed
			if _, err := warm.Run(sc); err != nil {
				t.Fatal(err)
			}
			next := sc
			next.Seed = seed + 10
			cold := NewEngine()
			want, err := cold.Run(next)
			if err != nil {
				t.Fatal(err)
			}
			got, err := warm.Run(next)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Errorf("%s seed %d after seed %d: warm %+v\ncold %+v", scheme, next.Seed, seed, got, want)
			}
			for i := range warm.nodes {
				if g, w := tableOf(warm.nodes[i].Agent), tableOf(cold.nodes[i].Agent); !slices.Equal(g, w) {
					t.Errorf("%s seed %d node %d: warm table %+v\ncold table %+v", scheme, next.Seed, i, g, w)
				}
				if g, w := warm.nodes[i].Agent.DupCacheLen(), cold.nodes[i].Agent.DupCacheLen(); g != w {
					t.Errorf("%s seed %d node %d: %d live floods warm, %d cold", scheme, next.Seed, i, g, w)
				}
				if g, w := warm.nodes[i].Agent.Neighbors().Loads(nil), cold.nodes[i].Agent.Neighbors().Loads(nil); !slices.Equal(g, w) {
					t.Errorf("%s seed %d node %d: neighbours warm %v, cold %v", scheme, next.Seed, i, g, w)
				}
			}
		}
	}
}

func tableOf(c *routing.Core) []routing.Route {
	var out []routing.Route
	c.Table().Each(func(r routing.Route) { out = append(out, r) })
	return out
}

// fullBFSHops is the hop distance from one node to another by a full
// breadth-first search from the first, -1 when unreachable.
func fullBFSHops(tp *topo.Topology, from, to pkt.NodeID) int {
	dist := make([]int, tp.N())
	for i := range dist {
		dist[i] = -1
	}
	dist[from] = 0
	for queue := []pkt.NodeID{from}; len(queue) > 0; queue = queue[1:] {
		for _, v := range tp.Neighbors[queue[0]] {
			if dist[v] < 0 {
				dist[v] = dist[queue[0]] + 1
				queue = append(queue, v)
			}
		}
	}
	return dist[to]
}

// pickEndpointsByHopDist is pickEndpoints as it stood while it ran a full
// BFS per candidate pair: the oracle of TestPickFlowsUnchanged.
func pickEndpointsByHopDist(sc Scenario, tp *topo.Topology, src *rng.Source, gateway pkt.NodeID) (pkt.NodeID, pkt.NodeID, bool) {
	n := tp.N()
	for attempt := 0; attempt < 1000; attempt++ {
		s := pkt.NodeID(src.Intn(n))
		d := gateway
		if !sc.Gateway {
			d = pkt.NodeID(src.Intn(n))
		}
		if s == d {
			continue
		}
		if fullBFSHops(tp, s, d) < sc.MinHopDist {
			continue
		}
		return s, d, true
	}
	return 0, 0, false
}

// TestPickFlowsUnchanged pins the flow lists. The seventeen lines of
// scripts/report_identity.sh draw their flows from five shapes (scheme,
// faults and instruments do not reach pickFlows); for each, over several
// seeds, every endpoint pair pickFlows returns — through Topology.Hops,
// which stops its BFS at the destination and allocates nothing — is the
// pair the full-BFS oracle accepts on an identical RNG stream, which also
// pins the number of draws each pair consumed.
func TestPickFlowsUnchanged(t *testing.T) {
	gateway, grid225 := DefaultScenario(), DefaultScenario()
	gateway.Gateway, gateway.Flows = true, 20
	grid225.Rows, grid225.Cols, grid225.AreaM, grid225.Flows = 15, 15, 2142.857, 20
	mobile := gridShape(10, 10, 1428.57, 15, 4, 80*des.Second)
	mobile.Topology, mobile.SessionTime = TopoPerturbedGrid, 0
	shapes := map[string]Scenario{
		"default":  DefaultScenario(),
		"gateway":  gateway,
		"grid225":  grid225,
		"mobile":   mobile,
		"field900": gridShape(30, 30, 4437, 40, 2, 20*des.Second),
	}
	for name, sc := range shapes {
		for seed := uint64(1); seed <= 3; seed++ {
			sc.Seed = seed
			master := rng.New(seed)
			tp := new(topo.Topology)
			_, err := place(sc, master, tp, nil)
			if err != nil {
				t.Fatal(err)
			}
			flows, err := pickFlows(sc, tp, master.Derive(2000), nil)
			if err != nil {
				t.Fatal(err)
			}
			var gateway pkt.NodeID
			if sc.Gateway {
				gateway = centreNode(tp)
			}
			oracle := master.Derive(2000)
			for i, f := range flows {
				s, d, ok := pickEndpointsByHopDist(sc, tp, oracle, gateway)
				if !ok || s != f.Src || d != f.Dst {
					t.Fatalf("%s seed %d flow %d: %d→%d, full BFS picks %d→%d (ok=%v)", name, seed, i, f.Src, f.Dst, s, d, ok)
				}
			}
			if len(flows) < sc.Flows {
				t.Fatalf("%s seed %d: %d flows for %d slots", name, seed, len(flows), sc.Flows)
			}
		}
	}
	// Unreachable (-1) is "fewer than any minimum".
	tp := &topo.Topology{Neighbors: [][]pkt.NodeID{{1}, {0}, {}}}
	if h := tp.Hops(0, 2); h != -1 || tp.Hops(0, 1) != 1 || tp.Hops(2, 2) != 0 {
		t.Errorf("Hops on a split graph: 0→2 = %d, want -1; 0→1 = %d, want 1", h, tp.Hops(0, 1))
	}
	big := shapes["field900"]
	tp = new(topo.Topology)
	_, err := place(big, rng.New(1), tp, nil)
	if err != nil {
		t.Fatal(err)
	}
	tp.Hops(0, 899)
	if n := testing.AllocsPerRun(20, func() { tp.Hops(3, 700) }); n != 0 {
		t.Errorf("Hops allocates %v times per call", n)
	}
}
