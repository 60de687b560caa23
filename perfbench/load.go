package main

import (
	"fmt"
	"math/rand"
	"os"
	"time"

	"sciera/internal/core"
	"sciera/internal/scenario"
	"sciera/internal/simnet"
	"sciera/internal/traffic"
)

// The load workload is the loadbench builtin traffic: a two-AS core
// pair, open-loop Poisson flow arrivals in simulated time, fixed
// 128-packet flows sent in bursts of 4, on the calendar scheduler. The
// arrival horizon is shortened from 1.5 s to 1.15 s of simulated time so
// one run takes seconds while more than 100k flows are still in flight
// at the peak. The arrival rate is unchanged.
const (
	loadHorizonMS = 1150
	// loadWindow is the simulated time the simulator runs between two
	// host-time readings; each window yields one per-packet latency
	// sample.
	loadWindow = 40 * time.Millisecond
	// loadMinPeakFlows is the in-flight population the workload must
	// reach to keep the pending events far beyond the CPU caches.
	loadMinPeakFlows = 100_000
	// loadNominalSeconds is one load run's wall time on a 2-CPU host,
	// which sets how many runs a time budget holds.
	loadNominalSeconds = 24
)

func loadScenario(seed int64) *scenario.Scenario {
	s := scenario.MustBuiltin("loadbench")
	s.Traffic.HorizonMS = loadHorizonMS
	s.Traffic.Seed = seed
	return s
}

func loadParams(seed int64) map[string]any {
	t := loadScenario(seed).Traffic
	return map[string]any{
		"scenario":              "loadbench",
		"pairs":                 len(t.Pairs),
		"endpoints_per_source":  t.EndpointsPerSource,
		"arrival_rate_per_pair": t.ArrivalRatePerPair,
		"flow_packets":          t.FlowPackets,
		"payload_bytes":         t.PayloadBytes,
		"packet_interval_ms":    t.PacketIntervalMS,
		"burst":                 t.Burst,
		"horizon_ms":            t.HorizonMS,
		"traffic_seed":          t.Seed,
		"scheduler":             "calendar",
	}
}

// fixedSize pins every flow at the scenario's flow length.
type fixedSize struct{ n int }

func (f fixedSize) Sample(*rand.Rand) int { return f.n }

// loadInstance is one set-up load workload, ready to start.
type loadInstance struct {
	s   *scenario.Scenario
	sim *simnet.Sim
	n   *core.Network
	e   *traffic.Engine
}

// buildLoad is the load workload's set-up: core.Build plus traffic.New.
func buildLoad(seed int64, t *tracer, parent int) (*loadInstance, error) {
	s := loadScenario(seed)
	topo, err := s.Build()
	if err != nil {
		return nil, err
	}
	li := &loadInstance{s: s, sim: simnet.NewSim(s.Campaign.Start())}
	intra := time.Duration(s.Traffic.IntraASDelayUS * float64(time.Microsecond))
	id := t.start("core.Build", parent)
	li.n, err = core.Build(topo, li.sim, core.Options{Seed: 1, IntraASDelay: intra})
	t.end(id)
	if err != nil {
		return nil, err
	}
	pairs := make([]traffic.Pair, len(s.Traffic.Pairs))
	for i, p := range s.Traffic.Pairs {
		pairs[i] = traffic.Pair{Src: p.Src, Dst: p.Dst}
	}
	id = t.start("traffic.New", parent)
	li.e, err = traffic.New(li.n, traffic.Config{
		Pairs:          pairs,
		Endpoints:      s.Traffic.EndpointsPerSource,
		ArrivalRate:    s.Traffic.ArrivalRatePerPair,
		FlowSizes:      fixedSize{s.Traffic.FlowPackets},
		PayloadBytes:   s.Traffic.PayloadBytes,
		PacketInterval: time.Duration(s.Traffic.PacketIntervalMS * float64(time.Millisecond)),
		Burst:          s.Traffic.Burst,
		Seed:           s.Traffic.Seed,
	})
	t.end(id)
	if err != nil {
		li.n.Close()
		return nil, err
	}
	return li, nil
}

func (li *loadInstance) close() {
	li.e.Close()
	li.n.Close()
}

// drive starts the arrivals and runs the simulator until every flow has
// drained, one window of simulated time at a time. It returns the host
// time per delivered packet of each window that delivered any.
func (li *loadInstance) drive(t *tracer, parent int) []float64 {
	id := t.start("traffic.Start", parent)
	li.e.Start(time.Duration(li.s.Traffic.HorizonMS * float64(time.Millisecond)))
	t.end(id)
	var perPacketMS []float64
	var delivered uint64
	for li.sim.PendingEvents() > 0 {
		t0 := time.Now()
		id := t.start("simnet.RunUntil", parent)
		li.sim.RunUntil(li.sim.Now().Add(loadWindow))
		t.end(id)
		d := time.Since(t0)
		now := li.e.Stats().PacketsDelivered
		if now > delivered {
			perPacketMS = append(perPacketMS, d.Seconds()*1e3/float64(now-delivered))
		}
		delivered = now
	}
	return perPacketMS
}

// check verifies a drained run: every packet and flow conserved, the
// in-flight peak reached, and the fingerprint (full Stats plus the
// flow-completion histogram) equal to the recorded one for this seed.
func (li *loadInstance) check(seed int64) error {
	st := li.e.Stats()
	if st.PacketsDelivered != st.PacketsSent || st.FlowsCompleted != st.FlowsStarted || st.ActiveFlows != 0 {
		return fmt.Errorf("load not conserved: %+v", st)
	}
	if _, dropped := li.sim.Stats(); dropped != 0 {
		return fmt.Errorf("load: simulator dropped %d datagrams", dropped)
	}
	if st.PeakActiveFlows < loadMinPeakFlows {
		return fmt.Errorf("load: peak %d flows in flight, want >= %d", st.PeakActiveFlows, loadMinPeakFlows)
	}
	fp := digest([]byte(fmt.Sprintf("%+v|%+v|%d", st, li.e.FCT(), st.PeakActiveFlows)))
	if want, ok := loadDigests[seed]; ok && fp != want {
		return fmt.Errorf("load fingerprint %s, want %s", fp, want)
	}
	fmt.Fprintf(os.Stderr, "load: seed %d fingerprint %s\n", seed, fp)
	return nil
}

// loadSetupRuns is the load workload's set-up count: its set-up takes
// well under a millisecond, so the median needs more samples.
const loadSetupRuns = 201

// timedLoad builds one load instance, drives it until every flow has
// drained with the drive charged to ph, checks it and closes it. It
// returns the final stats and the per-window latencies.
func timedLoad(seed int64, ph *phase) (traffic.Stats, []float64, error) {
	li, err := buildLoad(seed, nil, 0)
	if err != nil {
		return traffic.Stats{}, nil, err
	}
	defer li.close()
	a := startPhase()
	windows := li.drive(nil, 0)
	ph.add(a, readUsage())
	return li.e.Stats(), windows, li.check(seed)
}

// runLoad measures as many whole load runs as the time budget holds.
// An op is one packet delivered.
func runLoad(o options) (*endToEnd, error) {
	e := &endToEnd{}
	for i := 0; i < loadSetupRuns; i++ {
		var li *loadInstance
		err := e.timeSetup(func() (err error) {
			li, err = buildLoad(o.seed, nil, 0)
			return err
		})
		if err != nil {
			return e, err
		}
		li.close()
	}
	var sent, delivered int64
	for i := runsFor(o.seconds, loadNominalSeconds); i > 0; i-- {
		before := e.ph
		st, windows, err := timedLoad(o.seed, &e.ph)
		e.chunkSince(before, int64(st.PacketsDelivered))
		sent += int64(st.PacketsSent)
		delivered += int64(st.PacketsDelivered)
		e.ops, e.failed = delivered, sent-delivered
		e.okFrac = float64(delivered) / float64(sent)
		e.opMS = append(e.opMS, windows...)
		if err != nil {
			return e, err
		}
	}
	return e, nil
}

// traceLoad runs the load with spans and the CPU profiler on, between
// two untraced runs that measure the tracing overhead; every run must
// match the recorded fingerprint.
func traceLoad(o options, t *tracer) (layerReport, int64, error) {
	rep := layerReport{}
	var untraced, traced phase
	var untracedOps int64
	st, _, err := timedLoad(o.seed, &untraced)
	if err != nil {
		return rep, 0, err
	}
	untracedOps += int64(st.PacketsDelivered)

	root := t.start("load", 0)
	li, err := buildLoad(o.seed, t, root)
	if err != nil {
		return rep, 0, err
	}
	defer li.close()
	err = profiled(o, t, rep, func() error {
		a := startPhase()
		li.drive(t, root)
		traced.add(a, readUsage())
		return nil
	})
	t.end(root)
	st = li.e.Stats()
	ops := int64(st.PacketsDelivered)
	if err != nil {
		return rep, ops, err
	}
	if err := li.check(o.seed); err != nil {
		return rep, ops, err
	}
	ust, _, err := timedLoad(o.seed, &untraced)
	if err != nil {
		return rep, ops, err
	}
	untracedOps += int64(ust.PacketsDelivered)

	rep.addPhase(traced, ops, untraced, untracedOps)
	rep.addTelemetry(li.n.TelemetrySnapshot())
	rep.addSims(li.sim)
	rep.addRegistry(li.n.Registry())
	rep["traffic.flows_started"] = float64(st.FlowsStarted)
	rep["traffic.flows_completed"] = float64(st.FlowsCompleted)
	rep["traffic.packets_sent"] = float64(st.PacketsSent)
	rep["traffic.packets_delivered"] = float64(st.PacketsDelivered)
	rep["traffic.peak_active_flows"] = float64(st.PeakActiveFlows)
	run, _ := t.total("simnet.RunUntil")
	rep["simnet.ns_per_event"] = ratio(float64(run.Nanoseconds()), rep["simnet.events"])
	build, _ := t.total("core.Build")
	rep["core.converge_s"] = build.Seconds()
	return rep, ops, nil
}
