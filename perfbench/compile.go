package main

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"fpgaflow"
	"fpgaflow/internal/bitstream"
	"fpgaflow/internal/netlist"
)

// compileWorkload is a workload of independent fpgaflow.Run compiles, as
// a CLI user runs them: no RR-graph cache or other state is shared between
// compiles.
type compileWorkload struct {
	designs func(seed int64, tiny bool) ([]design, error)
	// opts are the flow options of every compile (the per-design placement
	// seed is added).
	opts fpgaflow.Options
}

var compileWorkloads = map[string]compileWorkload{
	// Routing dominates: minimum channel width search, serial (-j 1).
	"route-minw": {routeMinWDesigns, fpgaflow.Options{MinChannelWidth: true, PlaceWorkers: 1, RouteWorkers: 1}},
	// SIS, LUT mapping, DAGGER and verification dominate: fixed W, -j 1.
	"synth-verify": {synthVerifyDesigns, fpgaflow.Options{PlaceWorkers: 1, RouteWorkers: 1}},
}

// flowOptions are the options of one design's compile.
func (b *bench) flowOptions(w compileWorkload, d design) fpgaflow.Options {
	o := w.opts
	o.Seed = d.seed
	o.PlaceEffort = b.opt.placeEffort
	o.ActivityCycles = b.opt.activityCycles
	return o
}

// qor is the quality of one compile, or a sum over a pass.
type qor struct {
	luts, width, wirelength int
	critNS, energyPJ        float64
}

func (q *qor) add(o qor) {
	q.luts += o.luts
	q.width += o.width
	q.wirelength += o.wirelength
	q.critNS += o.critNS
	q.energyPJ += o.energyPJ
}

func qorOf(m fpgaflow.Metrics) qor {
	return qor{luts: m.LUTs, width: m.ChannelWidth, wirelength: m.WirelengthUsed,
		critNS: m.CriticalPath * 1e9, energyPJ: m.EnergyPJ}
}

// setQoR reports a pass's QoR sums.
func (b *bench) setQoR(q qor) {
	b.set("qor_luts", float64(q.luts), "count")
	b.set("qor_channel_width", float64(q.width), "tracks")
	b.set("qor_wirelength", float64(q.wirelength), "segments")
	b.set("qor_critical_path_ns", q.critNS, "ns")
	b.set("qor_energy_pj", q.energyPJ, "pJ")
	b.note("QoR sums: luts %d  width %d  wirelength %d  critical_path %.6f ns  energy %.6f pJ",
		q.luts, q.width, q.wirelength, q.critNS, q.energyPJ)
}

// compiled is one design's outcome.
type compiled struct {
	q       qor
	encoded []byte
}

// pass is one timed pass over a workload's input list.
type pass struct {
	r       reading
	designs []compiled
	sum     qor
	lat     []float64 // seconds per compile, in list order
}

// compilePass compiles every design once through fpgaflow.Run.
func (b *bench) compilePass(w compileWorkload, ds []design) pass {
	p := pass{designs: make([]compiled, len(ds))}
	m := startMeter()
	for i, d := range ds {
		t := time.Now()
		res, err := fpgaflow.Run(d.source, b.flowOptions(w, d))
		p.lat = append(p.lat, time.Since(t).Seconds())
		if err == nil && !res.Verified {
			err = errors.New("bitstream not verified")
		}
		if !b.t.op(err, "compile "+d.name) {
			continue
		}
		p.designs[i] = compiled{q: qorOf(res.Metrics), encoded: res.Encoded}
		p.sum.add(p.designs[i].q)
	}
	p.r = m.stop()
	return p
}

// setupCompile generates the inputs and makes one untimed warm-up compile;
// it returns the inputs and the set-up time. The warm-up compiles the
// list's longest source, which is the same design for every --seed.
func (b *bench) setupCompile(w compileWorkload) ([]design, float64, error) {
	t := time.Now()
	ds, err := w.designs(b.opt.seed, b.opt.tiny)
	if err != nil {
		return nil, 0, err
	}
	warm := ds[0]
	for _, d := range ds[1:] {
		if len(d.source) > len(warm.source) || len(d.source) == len(warm.source) && d.name < warm.name {
			warm = d
		}
	}
	if _, err := fpgaflow.Run(warm.source, b.flowOptions(w, warm)); err != nil {
		return nil, 0, fmt.Errorf("warm-up compile of %s: %w", warm.name, err)
	}
	return ds, time.Since(t).Seconds(), nil
}

// runCompile runs a compile workload, untraced or traced.
func (b *bench) runCompile(w compileWorkload) error {
	ds, setup, err := b.setupCompile(w)
	if err != nil {
		return err
	}
	if err := b.reportSetup(setup); err != nil {
		return err
	}
	for i := range ds {
		b.note("input %-16s %6d bytes", ds[i].name, len(ds[i].source))
	}
	if b.opt.trace {
		return b.tracedCompile(w, ds)
	}
	var passes []pass
	start := time.Now()
	for last := 0.0; len(passes)*len(ds) < minSamples || b.more(len(passes), time.Since(start).Seconds(), last); {
		p := b.compilePass(w, ds)
		passes = append(passes, p)
		last = p.r.wall
	}
	b.checkPasses(ds, passes)

	var wall, cpu, alloc, lat []float64
	for _, p := range passes {
		wall = append(wall, p.r.wall)
		cpu = append(cpu, p.r.cpu)
		alloc = append(alloc, p.r.allocMB)
		lat = append(lat, p.lat...)
	}
	b.summarize("compile_s", "s", wall)
	b.summarize("cpu_s", "s", cpu)
	b.summarize("alloc_mb", "MiB", alloc)
	// Without a farm, a job is one compile: what a CLI user or CI step
	// starts and waits for.
	b.setLatency(lat)
	b.setQoR(passes[0].sum)
	return nil
}

// setLatency reports job latency: one farm job's submit-to-terminal time,
// or one compile of a compile workload.
func (b *bench) setLatency(lat []float64) {
	b.set("job_p50_s", quantile(lat, 0.5), "s")
	b.set("job_p90_s", quantile(lat, 0.9), "s")
	beyond := len(lat) - int(0.9*float64(len(lat)))
	b.note("job latency p50 %.6g s  p90 %.6g s  (%d samples, %d beyond p90)",
		quantile(lat, 0.5), quantile(lat, 0.9), len(lat), beyond)
}

// checkPasses asserts that every pass reproduced the first pass's QoR sums
// and bitstreams, and runs the oracle on every combinational design.
func (b *bench) checkPasses(ds []design, passes []pass) {
	first := passes[0]
	for k, p := range passes[1:] {
		b.t.check(p.sum == first.sum, "pass %d QoR sums equal pass 1's", k+2)
		same := true
		for i := range ds {
			same = same && bytes.Equal(p.designs[i].encoded, first.designs[i].encoded)
		}
		b.t.check(same, "pass %d bitstreams equal pass 1's", k+2)
	}
	for i, d := range ds {
		if d.ref != nil {
			b.t.op(b.oracle(d, first.designs[i].encoded), "oracle "+d.name)
		}
	}
}

// oracle checks a bitstream against the design's reference model: the
// netlist extracted from the bitstream is written out as BLIF and both
// sides are evaluated by the benchmark's own cover evaluator.
func (b *bench) oracle(d design, encoded []byte) error {
	if len(encoded) == 0 {
		return errors.New("no bitstream")
	}
	bs, err := bitstream.Decode(encoded)
	if err != nil {
		return err
	}
	ex, err := bitstream.Extract(bs)
	if err != nil {
		return err
	}
	impl, err := parseBLIFModel(netlist.FormatBLIF(ex))
	if err != nil {
		return err
	}
	return compareModels(d.ref, impl, rand.New(rand.NewSource(b.opt.seed)).Int63())
}

func digest(encoded []byte) string {
	sum := sha256.Sum256(encoded)
	return fmt.Sprintf("%x", sum)
}
