package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// usage is a process-level resource reading: CPU from getrusage, heap
// allocation and GC activity from runtime/metrics.
type usage struct {
	wall       time.Time
	cpu        time.Duration
	allocBytes uint64
	gcCycles   uint64
	gcCPU      float64
	totalCPU   float64
}

var usageSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/cycles/total:gc-cycles"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func readUsage() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	metrics.Read(usageSamples)
	return usage{
		wall:       time.Now(),
		cpu:        time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		allocBytes: usageSamples[0].Value.Uint64(),
		gcCycles:   usageSamples[1].Value.Uint64(),
		gcCPU:      usageSamples[2].Value.Float64(),
		totalCPU:   usageSamples[3].Value.Float64(),
	}
}

// startPhase collects the heap and then reads the usage a timed
// section starts from, so garbage left by set-up or by checks is not
// charged to the section.
func startPhase() usage {
	runtime.GC()
	return readUsage()
}

// timeSetup times one set-up call, started from a collected heap, and
// appends its duration to e.setups.
func (e *endToEnd) timeSetup(build func() error) error {
	runtime.GC()
	t0 := time.Now()
	err := build()
	e.setups = append(e.setups, time.Since(t0).Seconds())
	return err
}

// maxRSSMB is the process's peak resident set size.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// phase accumulates the resources spent in one or more measured
// intervals; work between intervals (checks, rebuilds) is excluded.
type phase struct {
	wall       time.Duration
	cpu        time.Duration
	allocBytes uint64
	gcCycles   uint64
	gcCPU      float64
	totalCPU   float64
}

// add charges the interval from a to b.
func (p *phase) add(a, b usage) {
	p.wall += b.wall.Sub(a.wall)
	p.cpu += b.cpu - a.cpu
	p.allocBytes += b.allocBytes - a.allocBytes
	p.gcCycles += b.gcCycles - a.gcCycles
	p.gcCPU += b.gcCPU - a.gcCPU
	p.totalCPU += b.totalCPU - a.totalCPU
}

// opsPerSec is throughput over the phase's wall time.
func (p *phase) opsPerSec(ops int64) float64 { return float64(ops) / p.wall.Seconds() }

// runsFor is how many whole runs of a fixed-size workload fit a time
// budget at nominal seconds per run (at least one). The count does not
// adapt to the measured speed, so every run of the benchmark, on every
// commit, does the same work.
func runsFor(seconds, nominal float64) int { return max(1, int(seconds/nominal)) }

// quantile is the linearly interpolated q-quantile of xs (q in [0,1]);
// it sorts xs in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

// endToEnd is what an untraced run measured.
type endToEnd struct {
	setups []float64 // seconds per set-up
	ops    int64
	// failed counts ops the program got wrong: errors, failed checks,
	// lost packets, lookups without paths. Simulated losses the
	// scenario prescribes are correct output and not counted here.
	failed int64
	// okFrac is the share of attempted ops that succeeded, by the
	// workload's own definition of success (see README.md).
	okFrac float64
	ph     phase
	// chunks split the measured phase into slices of a few seconds or
	// less; ops_per_s and cpu_us_per_op are their medians, so a burst
	// of interference from other processes on the host moves a few
	// chunks, not the result.
	chunks []chunk
	// opMS holds per-op host latencies; for workloads whose ops cannot
	// be timed one by one, each entry is a window's time per op.
	opMS []float64
}

// chunk is one slice of a measured phase: the ops done in it and the
// wall and CPU time they took.
type chunk struct {
	ops       int64
	wall, cpu time.Duration
}

// chunkSince records the work charged to e.ph since it read before as
// one chunk of ops ops.
func (e *endToEnd) chunkSince(before phase, ops int64) {
	e.chunks = append(e.chunks, chunk{ops, e.ph.wall - before.wall, e.ph.cpu - before.cpu})
}

func (e *endToEnd) metrics() map[string]metric {
	ops := float64(e.ops)
	lat := append([]float64(nil), e.opMS...)
	var rates, cpus []float64
	for _, c := range e.chunks {
		if c.ops > 0 {
			rates = append(rates, float64(c.ops)/c.wall.Seconds())
			cpus = append(cpus, c.cpu.Seconds()*1e6/float64(c.ops))
		}
	}
	return map[string]metric{
		"setup_s":         {quantile(e.setups, 0.5), "s"},
		"ops_per_s":       {quantile(rates, 0.5), "1/s"},
		"cpu_us_per_op":   {quantile(cpus, 0.5), "us"},
		"op_p50_ms":       {quantile(lat, 0.5), "ms"},
		"op_p90_ms":       {quantile(lat, 0.9), "ms"},
		"ops_ok_frac":     {e.okFrac, "ratio"},
		"alloc_kb_per_op": {float64(e.ph.allocBytes) / 1024 / ops, "KB"},
		"max_rss_mb":      {maxRSSMB(), "MB"},
	}
}
