package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"sync"
	"time"

	"sciera/internal/addr"
	"sciera/internal/core"
	"sciera/internal/experiments"
	"sciera/internal/multiping"
	"sciera/internal/scenario"
	_ "sciera/internal/sciera" // registers the builtin "sciera" scenario
	"sciera/internal/simnet"
	"sciera/internal/telemetry"
)

// The campaign workload is the paper's Section 5.4 measurement
// campaign: the builtin sciera scenario, full vantage set, full 20-day
// window with every incident and mid-campaign link, unsigned. Only the
// round interval is coarsened, from 5 to 40 minutes, so that one
// campaign takes a few seconds and a run holds enough of them for a
// steady median. The campaign's output does not depend on the seed
// (its measurements are determined by the topology), so one recorded
// digest checks every seed.
const (
	campaignIntervalMinutes = 40
	campaignWorkers         = 2
	// campaignMinChunks is the fewest campaigns a run measures.
	campaignMinChunks = 3
)

func campaignConfig(seed int64) experiments.Config {
	s := scenario.MustBuiltin("sciera")
	s.Campaign.IntervalMinutes = campaignIntervalMinutes
	return experiments.Config{Seed: seed, Scenario: s, Workers: campaignWorkers}
}

func campaignParams(seed int64) map[string]any {
	cfg := campaignConfig(seed)
	return map[string]any{
		"scenario":         cfg.Scenario.Name,
		"days":             cfg.Scenario.Campaign.Days,
		"interval_minutes": cfg.Scenario.Campaign.IntervalMinutes,
		"vantage":          len(cfg.Scenario.Vantage),
		"incidents":        len(cfg.Scenario.Incidents),
		"new_links":        len(cfg.Scenario.NewLinks),
		"workers":          cfg.Workers,
		"signed":           false,
	}
}

// campaignScale is the campaign's window, round interval and vantage
// set, as experiments.RunCampaign derives them from the config.
func campaignScale(cfg experiments.Config) (duration, interval time.Duration, vantage []addr.IA) {
	s := cfg.Scenario
	if cfg.Quick {
		return s.Campaign.QuickDuration(), s.Campaign.QuickInterval(), s.QuickVantage()
	}
	return s.Campaign.Duration(), s.Campaign.Interval(), s.Vantage
}

// renderFigures renders the campaign-backed figures, 5 to 10a.
func renderFigures(w io.Writer, cfg experiments.Config, ds *multiping.Dataset) {
	s := cfg.Scenario
	duration, interval, _ := campaignScale(cfg)
	experiments.Figure5(w, ds)
	experiments.Figure6(w, s, ds)
	experiments.Figure7(w, s, ds)
	experiments.Figure8(w, s, ds)
	experiments.Figure9(w, s, ds, duration, interval)
	experiments.Figure10a(w, ds)
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

func datasetDigest(ds *multiping.Dataset) (string, error) {
	var b bytes.Buffer
	if err := ds.Write(&b); err != nil {
		return "", err
	}
	return digest(b.Bytes()), nil
}

// answered counts probes that returned an echo reply.
func answered(ds *multiping.Dataset) int64 {
	var ok int64
	for _, r := range ds.Records {
		ok += int64(r.SCIONOK)
	}
	return ok
}

// checkCampaign compares a campaign's figures and dataset with the
// recorded digests.
func checkCampaign(fig []byte, ds *multiping.Dataset) (string, error) {
	dd, err := datasetDigest(ds)
	if err != nil {
		return "", err
	}
	if got := digest(fig); got != campaignFigureDigest {
		return dd, fmt.Errorf("campaign figures digest %s, want %s", got, campaignFigureDigest)
	}
	if dd != campaignDatasetDigest {
		return dd, fmt.Errorf("campaign dataset digest %s, want %s", dd, campaignDatasetDigest)
	}
	return dd, nil
}

// campaignSetup is what every campaign pays before its first probe:
// converge the reference replica and clone one replica per worker.
func campaignSetup(cfg experiments.Config) error {
	snap, err := experiments.ConvergeReference(cfg, cfg.ProbePairs())
	if err != nil {
		return err
	}
	for i := 0; i < cfg.Workers; i++ {
		n, _, err := experiments.CloneReplica(cfg, snap)
		if err != nil {
			return err
		}
		n.Close()
	}
	return nil
}

// timedCampaign runs one campaign through experiments.RunCampaign,
// figures included, charges it to ph, and checks its output. It returns
// the dataset and its digest.
func timedCampaign(cfg experiments.Config, ph *phase) (*multiping.Dataset, string, error) {
	a := startPhase()
	ds, n, err := experiments.RunCampaign(cfg)
	if err != nil {
		return nil, "", err
	}
	var fig bytes.Buffer
	renderFigures(&fig, cfg, ds)
	ph.add(a, readUsage())
	n.Close()
	dd, err := checkCampaign(fig.Bytes(), ds)
	return ds, dd, err
}

// runCampaign measures whole campaigns, each one chunk, while the next
// one is expected to fit the time budget. An op is one SCMP probe sent.
func runCampaign(o options) (*endToEnd, error) {
	cfg := campaignConfig(o.seed)
	e := &endToEnd{}
	for i := 0; i < setupRuns; i++ {
		if err := e.timeSetup(func() error { return campaignSetup(cfg) }); err != nil {
			return e, err
		}
	}
	var ok int64
	var last time.Duration
	for len(e.chunks) < campaignMinChunks || (e.ph.wall+last).Seconds() <= o.seconds {
		before := e.ph
		ds, _, err := timedCampaign(cfg, &e.ph)
		last = e.ph.wall - before.wall
		if ds != nil {
			e.ops += int64(ds.Probes)
			ok += answered(ds)
			e.okFrac = float64(ok) / float64(e.ops)
			e.chunkSince(before, int64(ds.Probes))
			// Probes cannot be timed one by one from outside
			// RunCampaign: each campaign is one latency window.
			e.opMS = append(e.opMS, last.Seconds()*1e3/float64(ds.Probes))
		}
		if err != nil {
			return e, err
		}
	}
	return e, nil
}

// campaignRun is a campaign assembled from public calls: its merged
// dataset and the worker replicas in their post-campaign state.
type campaignRun struct {
	ds   *multiping.Dataset
	nets []*core.Network
	// iprtt holds each replica's IP-baseline accumulator.
	iprtt []ipTimer
}

func (r *campaignRun) close() {
	for _, n := range r.nets {
		n.Close()
	}
}

// ipTimer accumulates the time one replica spends in the IP baseline.
// Each replica's campaign runs on one goroutine, so it needs no lock.
type ipTimer struct {
	calls int64
	d     time.Duration
}

// assembleCampaign runs the campaign the way experiments.RunCampaign
// does, but from its public parts, so each layer gets a span:
// ConvergeReference, CloneReplica per worker, multiping.NewCampaign,
// Campaign.Run on one goroutine per worker, Dataset.Merge. The pairs
// are striped across workers as RunCampaign stripes them. The result
// is byte-identical to RunCampaign's (see campaign_test.go).
func assembleCampaign(cfg experiments.Config, t *tracer, parent int) (*campaignRun, error) {
	s := cfg.Scenario
	duration, interval, vantage := campaignScale(cfg)
	pairs := multiping.AllPairs(vantage, nil)
	workers := min(max(cfg.Workers, 1), len(pairs))

	id := t.start("core.ConvergeReference", parent)
	snap, err := experiments.ConvergeReference(cfg, pairs)
	t.end(id)
	if err != nil {
		return nil, err
	}
	ipTopo, err := s.BuildIPPlane()
	if err != nil {
		return nil, err
	}

	run := &campaignRun{iprtt: make([]ipTimer, workers)}
	camps := make([]*multiping.Campaign, workers)
	defer func() {
		for _, c := range camps {
			if c != nil {
				c.Close()
			}
		}
	}()
	for w := 0; w < workers; w++ {
		id := t.start("core.CloneReplica", parent)
		n, events, err := experiments.CloneReplica(cfg, snap)
		t.end(id)
		if err != nil {
			run.close()
			return nil, err
		}
		run.nets = append(run.nets, n)

		var shard []multiping.ProbePair
		for i := w; i < len(pairs); i += workers {
			shard = append(shard, pairs[i])
		}
		acc := &run.iprtt[w]
		mcfg := multiping.Config{
			Vantage:  vantage,
			Interval: interval,
			Duration: duration,
			IPRTT: func(src, dst addr.IA) float64 {
				t0 := time.Now()
				v := s.IPRTTms(ipTopo, src, dst)
				acc.d += time.Since(t0)
				acc.calls++
				return v
			},
			StallModel: true,
			Seed:       cfg.Seed,
			Incidents:  events,
			Pairs:      shard,
		}
		id = t.start("multiping.NewCampaign", parent)
		camps[w], err = multiping.NewCampaign(n, mcfg)
		t.end(id)
		if err != nil {
			run.close()
			return nil, err
		}
	}

	parts := make([]*multiping.Dataset, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := range camps {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			id := t.start("multiping.Run", parent)
			parts[w], errs[w] = camps[w].Run()
			t.end(id)
			t.addAggregate("scenario.IPRTTms", id, run.iprtt[w].calls, run.iprtt[w].d)
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			run.close()
			return nil, err
		}
	}

	id = t.start("multiping.Merge", parent)
	run.ds = &multiping.Dataset{}
	for _, p := range parts {
		run.ds.Merge(p)
	}
	t.end(id)
	return run, nil
}

// traceCampaign runs the campaign assembled from public calls with
// spans and the CPU profiler on, between two untraced RunCampaign
// campaigns that measure the tracing overhead. The traced dataset must
// be byte-identical to RunCampaign's.
func traceCampaign(o options, t *tracer) (layerReport, int64, error) {
	cfg := campaignConfig(o.seed)
	rep := layerReport{}

	// Bracketing the traced campaign keeps process warm-up from biasing
	// the overhead.
	var untraced phase
	var untracedOps int64
	ds, want, err := timedCampaign(cfg, &untraced)
	if err != nil {
		return rep, 0, err
	}
	untracedOps += int64(ds.Probes)

	var traced phase
	var run *campaignRun
	var fig bytes.Buffer
	err = profiled(o, t, rep, func() error {
		a := startPhase()
		root := t.start("campaign", 0)
		var err error
		if run, err = assembleCampaign(cfg, t, root); err != nil {
			return err
		}
		id := t.start("experiments.figures", root)
		renderFigures(&fig, cfg, run.ds)
		t.end(id)
		t.end(root)
		traced.add(a, readUsage())
		return nil
	})
	if err != nil {
		return rep, untracedOps, err
	}
	defer run.close()
	ops := int64(run.ds.Probes)
	got, err := checkCampaign(fig.Bytes(), run.ds)
	if err != nil {
		return rep, ops, err
	}
	if got != want {
		return rep, ops, fmt.Errorf("traced dataset %s differs from RunCampaign's %s", got, want)
	}
	if ds, _, err = timedCampaign(cfg, &untraced); err != nil {
		return rep, ops, err
	}
	untracedOps += int64(ds.Probes)

	rep.addPhase(traced, ops, untraced, untracedOps)
	snaps := make([]telemetry.Snapshot, len(run.nets))
	sims := make([]*simnet.Sim, len(run.nets))
	for i, n := range run.nets {
		snaps[i] = n.TelemetrySnapshot()
		sims[i] = n.Transport.(*simnet.Sim)
	}
	rep.addTelemetry(telemetry.MergeSnapshots(snaps...))
	rep.addSims(sims...)
	rep.addRegistry(run.nets[0].Registry())

	var samples, paths float64
	for _, pc := range run.ds.PathCounts {
		samples++
		paths += float64(pc.Count)
	}
	rep["combinator.paths_per_lookup"] = ratio(paths, samples)
	rep["multiping.records"] = float64(len(run.ds.Records))

	self := t.selfTimes()
	spanSec := func(name string) float64 { d, _ := t.total(name); return d.Seconds() }
	rep["multiping.new_s"] = spanSec("multiping.NewCampaign")
	rep["multiping.run_s"] = spanSec("multiping.Run")
	rep["multiping.merge_s"] = spanSec("multiping.Merge")
	rep["core.converge_s"] = spanSec("core.ConvergeReference")
	rep["core.clone_s"] = spanSec("core.CloneReplica")
	rep["experiments.figures_s"] = spanSec("experiments.figures")
	ipd, calls := t.total("scenario.IPRTTms")
	rep["scenario.iprtt_calls"] = float64(calls)
	rep["scenario.iprtt_s"] = ipd.Seconds()
	rep["scenario.iprtt_us"] = ratio(ipd.Seconds()*1e6, float64(calls))
	// The simulator runs inside Campaign.Run; its self time (the IP
	// baseline excluded) bounds the per-event cost from above.
	rep["simnet.ns_per_event"] = ratio(float64(self["multiping.Run"].Nanoseconds()), rep["simnet.events"])
	return rep, ops, nil
}
