// Command perfbench is the repository's end-to-end benchmark. It runs
// one workload (campaign, load or signed) for a given seed and
// time budget, checks that the program's outputs are correct, and
// prints one JSON result line. With -trace 1 it instead runs a fixed
// amount of the same work with spans and a CPU profile and reports
// per-layer metrics. README.md describes the workloads and metrics;
// run.py builds and runs it from the repository root.
package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
)

// options are the run's command-line inputs.
type options struct {
	seed    int64
	seconds float64
	outDir  string
}

// workload is one named benchmark workload.
type workload struct {
	// params describes the generated inputs, for the result stamp.
	params func(seed int64) map[string]any
	// run measures the end-to-end metrics with tracing off. A non-nil
	// error is a failed run or a failed correctness check.
	run func(o options) (*endToEnd, error)
	// trace runs a fixed amount of the work with spans and a CPU
	// profile, returning the per-layer values and the ops it did.
	trace func(o options, t *tracer) (layerReport, int64, error)
}

var workloads = map[string]workload{
	"campaign": {campaignParams, runCampaign, traceCampaign},
	"load":     {loadParams, runLoad, traceLoad},
	"signed":   {signedParams, runSigned, traceSigned},
}

// setupRuns is how many times each run sets up its workload; setup_s
// is the median.
const setupRuns = 15

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: campaign, load or signed")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Float64("seconds", 20, "time budget of the measured phase")
	traced := flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	outDir := flag.String("outdir", ".bench_build/trace", "directory for the spans and CPU profile of traced runs")
	root := flag.String("root", ".", "repository root, for the source stamp")
	flag.Parse()

	w, ok := workloads[*name]
	if !ok || (*traced != 0 && *traced != 1) || *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: usage: -workload campaign|load|signed -seed N -seconds S -trace 0|1\n")
		os.Exit(2)
	}
	o := options{seed: *seed, seconds: *seconds, outDir: *outDir}

	stamp := map[string]any{
		"workload":   *name,
		"seed":       *seed,
		"seconds":    *seconds,
		"trace":      *traced,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
		"revision":   gitRevision(*root),
		"source":     sourceDigest(*root),
		"params":     w.params(*seed),
	}
	emit(map[string]any{"stamp": stamp})

	var res result
	if *traced == 1 {
		res = tracedResult(w, *name, o, stamp)
	} else {
		e, err := w.run(o)
		res = result{Correct: err == nil, Attempted: e.ops, Failed: e.failed, Metrics: e.metrics()}
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		}
	}
	if !res.Correct {
		res.Failed = res.Attempted
	}
	if res.Attempted < 1 {
		res.Attempted, res.Failed = 1, 1
		res.Correct = false
	}
	// A metric over zero ops (a run that failed early) is not a finite
	// number, which JSON cannot carry.
	for k, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			res.Metrics[k] = metric{0, m.Unit}
		}
	}
	emit(res)
}

func tracedResult(w workload, name string, o options, stamp map[string]any) result {
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return result{Metrics: layerReport{}.metrics()}
	}
	t := newTracer(fmt.Sprintf("%s-seed%d", name, o.seed))
	base := filepath.Join(o.outDir, t.run)
	rep, ops, err := w.trace(o, t)
	if werr := t.write(base + ".trace.json"); werr != nil && err == nil {
		err = werr
	}
	if buf, merr := json.MarshalIndent(stamp, "", " "); merr == nil {
		_ = os.WriteFile(base+".stamp.json", buf, 0o644) // diagnostics only
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s (traced): %v\n", name, err)
	}
	return result{Correct: err == nil, Attempted: ops, Metrics: rep.metrics()}
}

// profiled runs f under the CPU profiler, saves the profile next to
// t's trace, and adds the per-module CPU shares to rep.
func profiled(o options, t *tracer, rep layerReport, f func() error) error {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return err
	}
	ferr := f()
	pprof.StopCPUProfile()
	if err := os.WriteFile(filepath.Join(o.outDir, t.run+".cpu.pprof"), buf.Bytes(), 0o644); err != nil {
		return err
	}
	shares, err := cpuShares(buf.Bytes())
	if err != nil {
		return err
	}
	rep.addShares(shares)
	return ferr
}

// emit prints one JSON line on stdout.
func emit(v any) {
	buf, err := json.Marshal(v)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(buf))
}

// gitRevision reads HEAD from the repository's .git directory, or
// returns "unknown" for a checkout without one.
func gitRevision(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, _ := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	for _, line := range strings.Split(string(packed), "\n") {
		if h, r, ok := strings.Cut(line, " "); ok && r == ref {
			return h
		}
	}
	return "unknown"
}

// sourceDigest hashes the Go sources and module files under root, so
// results from checkouts without git history stay attributable.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") && d.Name() != "go.mod" {
			return nil
		}
		b, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, p)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(rel), len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}
