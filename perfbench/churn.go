package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math/rand"
	"os"
	"time"

	"sciera/internal/addr"
	"sciera/internal/combinator"
	"sciera/internal/core"
	"sciera/internal/scenario"
	"sciera/internal/simnet"
	"sciera/internal/topology"
)

// The signed workload is a closed loop of link flaps drawn from the
// seed on the sciera deployment with the signed control plane, so the
// signing layers (cppki, segment, ECDSA) are measured. Each op is one
// Network.SetLinkUp call (which re-runs beaconing), followed by a cold
// Network.Paths lookup for every vantage pair, then one warm re-lookup
// pass. Even ops take a random flappable link down, odd ops bring it
// back, so at most one link is down at a time and no vantage pair loses
// all its paths.
const signedScenario = "sciera"

const (
	// churnMinOps is the fewest ops a run measures, so that op_p90_ms
	// has at least ten samples beyond it.
	churnMinOps = 100
	// churnChunkOps is the op count of one chunk of the measured phase;
	// churnMinOps is a multiple of it.
	churnChunkOps = 10
	// churnCheckOps is the prefix of ops whose digest chain is recorded
	// per seed in digests.go.
	churnCheckOps = 16
	// churnReplayOps is the prefix every run replays on a second,
	// independently built network, which must give the same paths.
	churnReplayOps = 4
	// churnTraceOps is the fixed op count of a traced run, so that its
	// counts repeat exactly.
	churnTraceOps = 40
)

func signedParams(seed int64) map[string]any {
	return map[string]any{
		"scenario":     signedScenario,
		"signed":       true,
		"flap_seed":    seed,
		"min_ops":      churnMinOps,
		"chunk_ops":    churnChunkOps,
		"check_ops":    churnCheckOps,
		"replay_ops":   churnReplayOps,
		"traced_ops":   churnTraceOps,
		"warm_lookups": 1,
	}
}

// churnNet is one built network with its vantage pairs and the links
// the loop may flap.
type churnNet struct {
	n         *core.Network
	pairs     [][2]addr.IA
	flappable []int
}

// buildChurn is the workload's set-up: core.Build of the scenario.
func buildChurn(seed int64, t *tracer, parent int) (*churnNet, error) {
	s, err := scenario.Resolve(signedScenario)
	if err != nil {
		return nil, err
	}
	topo, err := s.Build()
	if err != nil {
		return nil, err
	}
	id := t.start("core.Build", parent)
	n, err := core.Build(topo, simnet.NewSim(s.Campaign.Start()), core.Options{
		Seed:          seed,
		BestPerOrigin: s.Campaign.BestPerOrigin,
		WithPKI:       true,
	})
	t.end(id)
	if err != nil {
		return nil, err
	}
	c := &churnNet{n: n, flappable: flappable(topo)}
	for _, p := range s.Vantage {
		for _, q := range s.Vantage {
			if p != q {
				c.pairs = append(c.pairs, [2]addr.IA{p, q})
			}
		}
	}
	return c, nil
}

// flappable lists the links whose loss leaves every AS connected in the
// SCION sense: peering links, parent links of a child with another
// parent, and core links whose loss keeps the core graph connected.
func flappable(topo *topology.Topology) []int {
	var out []int
	for _, l := range topo.Links() {
		ok := false
		switch l.Type {
		case topology.LinkPeer:
			ok = true
		case topology.LinkParent:
			ok = len(topo.Parents(l.B.IA)) >= 2
		case topology.LinkCore:
			ok = coreConnectedWithout(topo, l.ID)
		}
		if ok && l.Up() {
			out = append(out, l.ID)
		}
	}
	return out
}

func coreConnectedWithout(topo *topology.Topology, skip int) bool {
	cores := topo.CoreASes()
	if len(cores) == 0 {
		return true
	}
	seen := map[addr.IA]bool{cores[0]: true}
	queue := []addr.IA{cores[0]}
	for len(queue) > 0 {
		ia := queue[0]
		queue = queue[1:]
		for _, l := range topo.LinksOf(ia) {
			if l.Type != topology.LinkCore || l.ID == skip || !l.Up() {
				continue
			}
			other, _ := l.Other(ia)
			if !seen[other.IA] {
				seen[other.IA] = true
				queue = append(queue, other.IA)
			}
		}
	}
	return len(seen) == len(cores)
}

// churnLoop drives one network through the seed's flap sequence.
type churnLoop struct {
	c    *churnNet
	rng  *rand.Rand
	down int // link taken down by the last even op

	ops, failed    int64
	lookups, paths int64
	chain          hash.Hash
	prefix         string     // chain digest after churnCheckOps ops
	sums           [][32]byte // per-op digests of the first churnReplayOps ops
	opMS           []float64
	found          [][]*combinator.Path
}

func newChurnLoop(c *churnNet, seed int64) *churnLoop {
	return &churnLoop{c: c, rng: rand.New(rand.NewSource(seed)), chain: sha256.New(), found: make([][]*combinator.Path, len(c.pairs))}
}

// step performs one op: a flap, the cold lookups, the warm lookups.
func (l *churnLoop) step(t *tracer, parent int) error {
	link, up := l.down, true
	if l.ops%2 == 0 {
		link, up = l.c.flappable[l.rng.Intn(len(l.c.flappable))], false
		l.down = link
	}
	t0 := time.Now()
	id := t.start("core.SetLinkUp", parent)
	err := l.c.n.SetLinkUp(link, up)
	t.end(id)
	if err != nil {
		return err
	}
	id = t.start("core.Paths.cold", parent)
	for i, p := range l.c.pairs {
		l.found[i] = l.c.n.Paths(p[0], p[1])
	}
	t.end(id)
	l.opMS = append(l.opMS, time.Since(t0).Seconds()*1e3)
	id = t.start("core.Paths.warm", parent)
	for i, p := range l.c.pairs {
		if len(l.c.n.Paths(p[0], p[1])) != len(l.found[i]) {
			t.end(id)
			return fmt.Errorf("warm lookup %v differs from the cold one", p)
		}
	}
	t.end(id)

	h := sha256.New()
	zero := false
	for i, ps := range l.found {
		fmt.Fprintf(h, "%v>%v:%d", l.c.pairs[i][0], l.c.pairs[i][1], len(ps))
		for _, p := range ps {
			h.Write([]byte(p.Fingerprint))
			h.Write([]byte{0})
		}
		l.paths += int64(len(ps))
		zero = zero || len(ps) == 0
	}
	var sum [32]byte
	h.Sum(sum[:0])
	l.ops++
	l.lookups += int64(len(l.found))
	if zero {
		l.failed++
	}
	l.chain.Write(sum[:])
	if l.ops == churnCheckOps {
		l.prefix = hex.EncodeToString(l.chain.Sum(nil))
	}
	if l.ops <= churnReplayOps {
		l.sums = append(l.sums, sum)
	}
	return nil
}

// check compares the loop's first ops with the recorded digest for the
// seed and requires every beacon to verify.
func (l *churnLoop) check(seed int64) error {
	if want, ok := signedDigests[seed]; ok && l.prefix != want {
		return fmt.Errorf("signed: digest of the first %d ops %s, want %s", churnCheckOps, l.prefix, want)
	}
	fmt.Fprintf(os.Stderr, "signed: seed %d digest of the first %d ops %s\n", seed, churnCheckOps, l.prefix)
	snap := l.c.n.TelemetrySnapshot()
	if f := snap.Total("sciera_beacon_verify_failed_total"); f != 0 {
		return fmt.Errorf("signed: %v beacons failed verification", f)
	}
	if snap.Total("sciera_beacon_verified_total") == 0 {
		return fmt.Errorf("signed: no beacon was verified")
	}
	return nil
}

// replay runs the first churnReplayOps ops on c and compares each op's
// paths with the loop's.
func (l *churnLoop) replay(c *churnNet, seed int64) error {
	r := newChurnLoop(c, seed)
	for i := 0; i < churnReplayOps; i++ {
		if err := r.step(nil, 0); err != nil {
			return err
		}
		if r.sums[i] != l.sums[i] {
			return fmt.Errorf("op %d gave different paths on an identically built network", i)
		}
	}
	return nil
}

func buildChurnNets(seed int64, e *endToEnd) ([]*churnNet, error) {
	var nets []*churnNet
	for i := 0; i < setupRuns; i++ {
		var c *churnNet
		err := e.timeSetup(func() (err error) {
			c, err = buildChurn(seed, nil, 0)
			return err
		})
		if err != nil {
			return nets, err
		}
		if len(nets) < 2 {
			nets = append(nets, c)
		} else {
			c.n.Close()
		}
	}
	return nets, nil
}

// runSigned measures flaps, in chunks of churnChunkOps, until the time
// budget is spent and at least churnMinOps were done. An op is one flap
// plus the cold re-lookup of every vantage pair; it fails if a pair has
// no path.
func runSigned(o options) (*endToEnd, error) {
	e := &endToEnd{}
	nets, err := buildChurnNets(o.seed, e)
	defer func() {
		for _, c := range nets {
			c.n.Close()
		}
	}()
	if err != nil {
		return e, err
	}
	l := newChurnLoop(nets[0], o.seed)
	start := startPhase()
	a := start
	for {
		err := l.step(nil, 0)
		e.ops, e.failed, e.opMS = l.ops, l.failed, l.opMS
		if err != nil {
			e.ph.add(a, readUsage())
			return e, err
		}
		if l.ops%churnChunkOps == 0 {
			b := readUsage()
			before := e.ph
			e.ph.add(a, b)
			e.chunkSince(before, churnChunkOps)
			a = b
			if b.wall.Sub(start.wall).Seconds() >= o.seconds && l.ops >= churnMinOps {
				break
			}
		}
	}
	e.okFrac = float64(e.ops-e.failed) / float64(e.ops)
	if err := l.check(o.seed); err != nil {
		return e, err
	}
	return e, l.replay(nets[1], o.seed)
}

// timedChurn runs the first n ops of the seed's loop on a freshly built
// network, charged to ph.
func timedChurn(seed int64, n int, ph *phase) (*churnLoop, error) {
	c, err := buildChurn(seed, nil, 0)
	if err != nil {
		return nil, err
	}
	defer c.n.Close()
	l := newChurnLoop(c, seed)
	a := startPhase()
	defer func() { ph.add(a, readUsage()) }()
	for i := 0; i < n; i++ {
		if err := l.step(nil, 0); err != nil {
			return l, err
		}
	}
	return l, nil
}

// traceSigned runs churnTraceOps ops with spans and the CPU profiler
// on, between two untraced runs of the same ops on other networks that
// measure the tracing overhead. All three must give the same paths.
func traceSigned(o options, t *tracer) (layerReport, int64, error) {
	rep := layerReport{}
	var untraced, traced phase
	u1, err := timedChurn(o.seed, churnTraceOps, &untraced)
	if err != nil {
		return rep, 0, err
	}

	root := t.start("signed", 0)
	c, err := buildChurn(o.seed, t, root)
	if err != nil {
		return rep, 0, err
	}
	defer c.n.Close()
	l := newChurnLoop(c, o.seed)
	err = profiled(o, t, rep, func() error {
		a := startPhase()
		defer func() { traced.add(a, readUsage()) }()
		for i := 0; i < churnTraceOps; i++ {
			if err := l.step(t, root); err != nil {
				return err
			}
		}
		return nil
	})
	t.end(root)
	if err != nil {
		return rep, l.ops, err
	}
	if err := l.check(o.seed); err != nil {
		return rep, l.ops, err
	}
	u2, err := timedChurn(o.seed, churnTraceOps, &untraced)
	if err != nil {
		return rep, l.ops, err
	}
	for _, u := range []*churnLoop{u1, u2} {
		if !bytes.Equal(l.chain.Sum(nil), u.chain.Sum(nil)) {
			return rep, l.ops, fmt.Errorf("signed: traced ops gave different paths than untraced ones")
		}
	}

	rep.addPhase(traced, l.ops, untraced, u1.ops+u2.ops)
	rep.addTelemetry(c.n.TelemetrySnapshot())
	rep.addRegistry(c.n.Registry())
	rep.addSims(c.n.Transport.(*simnet.Sim))
	rep["combinator.paths_per_lookup"] = ratio(float64(l.paths), float64(l.lookups))
	build, _ := t.total("core.Build")
	rep["core.converge_s"] = build.Seconds()
	set, n := t.total("core.SetLinkUp")
	rep["core.set_link_up_ms"] = ratio(set.Seconds()*1e3, float64(n))
	cold, _ := t.total("core.Paths.cold")
	rep["core.paths_cold_us"] = ratio(cold.Seconds()*1e6, float64(l.lookups))
	warm, _ := t.total("core.Paths.warm")
	rep["core.paths_warm_ns"] = ratio(float64(warm.Nanoseconds()), float64(l.lookups))
	return rep, l.ops, nil
}
