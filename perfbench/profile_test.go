package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"math"
	"runtime/pprof"
	"testing"
	"time"

	"sciera/internal/scenario"
)

// pbuf is a minimal protocol-buffer encoder for hand-built profiles.
type pbuf struct{ b []byte }

func (p *pbuf) varint(field int, v uint64) {
	p.b = binary.AppendUvarint(p.b, uint64(field)<<3)
	p.b = binary.AppendUvarint(p.b, v)
}

func (p *pbuf) bytes(field int, b []byte) {
	p.b = binary.AppendUvarint(p.b, uint64(field)<<3|2)
	p.b = binary.AppendUvarint(p.b, uint64(len(b)))
	p.b = append(p.b, b...)
}

func (p *pbuf) msg(field int, m pbuf) { p.bytes(field, m.b) }

func (p *pbuf) packed(field int, vs ...uint64) {
	var in []byte
	for _, v := range vs {
		in = binary.AppendUvarint(in, v)
	}
	p.bytes(field, in)
}

// handBuiltProfile encodes three samples:
//   - 10 ns in crypto/ecdsa called from the beacon runner: beacon;
//   - 30 ns in mallocgc called from main: no sciera frame, runtime;
//   - 60 ns in slayers code inlined into the router: slayers, the
//     innermost sciera frame of the inlined chain.
//
// The last sample's values are encoded unpacked, as older writers do.
func handBuiltProfile(t *testing.T) []byte {
	strs := []string{"", "samples", "count", "cpu", "nanoseconds",
		"sciera/internal/router.(*Router).handleBatch",
		"crypto/ecdsa.Verify",
		"sciera/internal/beacon.(*Runner).Run",
		"runtime.mallocgc",
		"main.main",
		"sciera/internal/slayers.(*Packet).DecodeSameFlow",
	}
	var p pbuf
	for _, vt := range [][2]uint64{{1, 2}, {3, 4}} {
		var m pbuf
		m.varint(1, vt[0])
		m.varint(2, vt[1])
		p.msg(1, m)
	}
	// Functions 1..6 name string-table entries 5..10.
	for id := uint64(1); id <= 6; id++ {
		var m pbuf
		m.varint(1, id)
		m.varint(2, id+4)
		p.msg(5, m)
	}
	// Locations: 1 ecdsa, 2 beacon, 3 mallocgc, 4 main, 5 slayers
	// inlined into router (innermost line first).
	for id, fns := range map[uint64][]uint64{1: {2}, 2: {3}, 3: {4}, 4: {5}, 5: {6, 1}} {
		var m pbuf
		m.varint(1, id)
		for _, fn := range fns {
			var line pbuf
			line.varint(1, fn)
			line.varint(2, 42)
			m.msg(4, line)
		}
		p.msg(4, m)
	}
	for _, s := range []struct {
		locs []uint64
		ns   uint64
	}{{[]uint64{1, 2, 4}, 10}, {[]uint64{3, 4}, 30}} {
		var m pbuf
		m.packed(1, s.locs...)
		m.packed(2, 1, s.ns)
		p.msg(2, m)
	}
	var m pbuf
	m.varint(1, 5)
	m.varint(1, 4)
	m.varint(2, 1)
	m.varint(2, 60)
	p.msg(2, m)
	for _, s := range strs {
		p.bytes(6, []byte(s))
	}

	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	if _, err := zw.Write(p.b); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return gz.Bytes()
}

func TestCPUSharesHandBuilt(t *testing.T) {
	got, err := cpuShares(handBuiltProfile(t))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"beacon": 0.1, "runtime": 0.3, "slayers": 0.6}
	if len(got) != len(want) {
		t.Fatalf("shares %v, want %v", got, want)
	}
	for m, w := range want {
		if math.Abs(got[m]-w) > 1e-12 {
			t.Errorf("%s share %v, want %v", m, got[m], w)
		}
	}
}

func TestCPUSharesRejectsGarbage(t *testing.T) {
	if _, err := cpuShares([]byte("not a profile")); err == nil {
		t.Fatal("want an error for a non-gzip input")
	}
}

func TestModuleOf(t *testing.T) {
	for fn, want := range map[string]string{
		"sciera/internal/router.(*Router).handleBatch":      "router",
		"sciera/internal/multiping.(*Campaign).round.func1": "multiping",
		"sciera/internal/simnet.newCalendar[...]":           "simnet",
		"sciera/internal/foo/bar.Baz":                       "foo",
		"sciera/cmd/loadbench.main":                         "",
		"main.main":                                         "",
		"crypto/ecdsa.Verify":                               "",
	} {
		if got := moduleOf(fn); got != want {
			t.Errorf("moduleOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// TestCPUSharesRealProfile parses a profile written by runtime/pprof
// while the benchmark spins on the IP-baseline Dijkstra.
func TestCPUSharesRealProfile(t *testing.T) {
	s := scenario.MustBuiltin("sciera")
	ip, err := s.BuildIPPlane()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiler unavailable:", err)
	}
	src, dst := s.Vantage[0], s.Vantage[len(s.Vantage)-1]
	var sink float64
	for end := time.Now().Add(500 * time.Millisecond); time.Now().Before(end); {
		sink += s.IPRTTms(ip, src, dst)
	}
	pprof.StopCPUProfile()
	shares, err := cpuShares(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, v := range shares {
		sum += v
	}
	if len(shares) > 0 && math.Abs(sum-1) > 1e-9 {
		t.Errorf("shares sum to %v: %v", sum, shares)
	}
	if shares["topology"] < 0.5 {
		t.Errorf("topology share %v of a Dijkstra loop; shares %v (sink %v)", shares["topology"], shares, sink)
	}
}
