package main

import (
	"bytes"
	"context"
	"fmt"
	"sort"
	"time"

	"fpgaflow"
	"fpgaflow/internal/arch"
	"fpgaflow/internal/bitstream"
	"fpgaflow/internal/check"
	"fpgaflow/internal/edif"
	"fpgaflow/internal/logic"
	"fpgaflow/internal/netlist"
	"fpgaflow/internal/obs"
	"fpgaflow/internal/pack"
	"fpgaflow/internal/place"
	"fpgaflow/internal/power"
	"fpgaflow/internal/route"
	"fpgaflow/internal/rrgraph"
	"fpgaflow/internal/sim"
	"fpgaflow/internal/techmap"
	"fpgaflow/internal/timing"
	"fpgaflow/internal/vhdl"
)

// The traced run calls each layer's public functions itself, in the order
// and with the options internal/core uses, and times every call from the
// outside. Nothing is added to the program's own tracing: the work counts
// are the program's existing counters, read from an obs.Trace handed in
// through the layers' public Obs options.

// chain accumulates one traced pass.
type chain struct {
	sec    map[string]float64 // layer time metric -> seconds
	alloc  map[string]float64 // layer time metric -> MiB allocated
	count  map[string]float64 // layer count metric -> sum
	stages map[string]float64 // core stage name -> seconds
	stage  string             // the core stage being run
	tr     *obs.Trace
}

func newChain() *chain {
	return &chain{sec: map[string]float64{}, alloc: map[string]float64{}, count: map[string]float64{},
		stages: map[string]float64{}, tr: obs.New("perfbench")}
}

// do times one call into a layer.
func (c *chain) do(layer string, fn func() error) error {
	a0 := allocBytes()
	t0 := time.Now()
	err := fn()
	dt := time.Since(t0).Seconds()
	c.sec[layer] += dt
	c.alloc[layer] += float64(allocBytes()-a0) / (1 << 20)
	c.stages[c.stage] += dt
	return err
}

// check runs one stage-boundary rule set as core's runChecks does.
func (c *chain) check(stage check.Stage, a *check.Artifacts) error {
	return c.do("check.s", func() error {
		rep := check.RunStage(stage, a)
		rep.Record(c.tr)
		return rep.Err()
	})
}

// compile runs the flow on one design, layer by layer. o must be filled
// as core fills it (PlaceEffort and ActivityCycles set).
func (c *chain) compile(src string, o fpgaflow.Options) (compiled, error) {
	ctx := context.Background()
	var source *netlist.Netlist
	var blif string
	if looksLikeBLIF(src) {
		blif = src
		c.stage = "BLIF"
		if err := c.check(check.StageNetlist, &check.Artifacts{BLIF: blif}); err != nil {
			return compiled{}, err
		}
		if err := c.do("netlist.s", func() (err error) { source, err = netlist.ParseBLIF(blif); return }); err != nil {
			return compiled{}, err
		}
	} else {
		var des *vhdl.Design
		c.stage = "VHDL Parser"
		if err := c.do("vhdl.s", func() (err error) { des, err = vhdl.Parse(src); return }); err != nil {
			return compiled{}, err
		}
		c.stage = "DIVINER"
		if err := c.do("vhdl.s", func() (err error) { source, err = vhdl.Elaborate(des, o.Top); return }); err != nil {
			return compiled{}, err
		}
		var ed string
		c.stage = "DRUID"
		if err := c.do("edif.s", func() error {
			text, err := edif.Write(source)
			if err != nil {
				return err
			}
			ed, err = edif.Druid(text)
			return err
		}); err != nil {
			return compiled{}, err
		}
		c.stage = "E2FMT"
		if err := c.do("edif.s", func() (err error) { blif, err = edif.E2FMT(ed); return }); err != nil {
			return compiled{}, err
		}
		if err := c.check(check.StageNetlist, &check.Artifacts{BLIF: blif}); err != nil {
			return compiled{}, err
		}
	}
	a := arch.Paper().Clone()

	c.stage = "SIS"
	var nl *netlist.Netlist
	if err := c.do("netlist.s", func() (err error) { nl, err = netlist.ParseBLIF(blif); return }); err != nil {
		return compiled{}, err
	}
	if err := c.do("logic.s", func() error {
		if err := logic.Optimize(nl, o.OptimizeOptions); err != nil {
			return err
		}
		return logic.Decompose(nl)
	}); err != nil {
		return compiled{}, err
	}
	c.count["logic.gates_out"] += float64(nl.Stats().Logic)
	_ = c.do("netlist.s", func() error { _ = netlist.FormatBLIF(nl); return nil })
	if err := c.check(check.StageNetlist, &check.Artifacts{Netlist: nl}); err != nil {
		return compiled{}, err
	}

	c.stage = "LUT map"
	var mapped *techmap.Result
	if err := c.do("techmap.s", func() (err error) { mapped, err = techmap.FlowMap(nl, a.CLB.K); return }); err != nil {
		return compiled{}, err
	}
	c.count["techmap.luts"] += float64(mapped.LUTs)
	if err := c.check(check.StageNetlist, &check.Artifacts{Netlist: mapped.Netlist, K: a.CLB.K}); err != nil {
		return compiled{}, err
	}

	c.stage = "T-VPack"
	var pk *pack.Packing
	if err := c.do("pack.s", func() (err error) {
		pk, err = pack.Pack(mapped.Netlist, pack.Params{N: a.CLB.N, K: a.CLB.K, I: a.CLB.I, GroupGated: o.PowerAwarePack})
		if err == nil {
			pk.Record(c.tr)
		}
		return
	}); err != nil {
		return compiled{}, err
	}
	c.count["pack.clbs"] += float64(len(pk.Clusters))
	if err := c.check(check.StagePack, &check.Artifacts{Packing: pk}); err != nil {
		return compiled{}, err
	}

	c.stage = "DUTYS"
	var p *place.Problem
	if err := c.do("place.s", func() (err error) {
		p, err = place.NewProblem(a, pk)
		if err == nil {
			p.AutoSize()
		}
		return
	}); err != nil {
		return compiled{}, err
	}

	c.stage = "VPR place"
	var pl *place.Placement
	if err := c.do("place.s", func() (err error) {
		pl, err = place.Place(p, place.Options{Seed: o.Seed, InnerNum: o.PlaceEffort, Obs: c.tr, Ctx: ctx, Workers: o.PlaceWorkers})
		return
	}); err != nil {
		return compiled{}, err
	}
	if err := c.check(check.StagePlace, &check.Artifacts{Problem: p, Placement: pl}); err != nil {
		return compiled{}, err
	}

	c.stage = "VPR route"
	// The hardened runner gives every compile a fresh RR-graph cache.
	ropts := route.Options{MaxIters: o.RouteMaxIters, Obs: c.tr, Ctx: ctx, Workers: o.RouteWorkers, Cache: rrgraph.NewCache(0)}
	var r *route.Result
	if err := c.do("route.s", func() error {
		if o.MinChannelWidth {
			w, res, err := route.MinChannelWidth(p, pl, 1, a.Routing.ChannelWidth, ropts)
			if err != nil {
				return err
			}
			a.Routing.ChannelWidth = w
			r = res
		} else {
			g, err := ropts.Cache.Get(a, c.tr)
			if err != nil {
				return err
			}
			if r, err = route.Route(p, pl, g, ropts); err != nil {
				return err
			}
			if !r.Success {
				return fmt.Errorf("unroutable at W=%d", a.Routing.ChannelWidth)
			}
		}
		return r.Validate(p, pl)
	}); err != nil {
		return compiled{}, err
	}
	if err := c.check(check.StageRoute, &check.Artifacts{Graph: r.Graph, Routing: r, Problem: p, Placement: pl}); err != nil {
		return compiled{}, err
	}

	c.stage = "Timing"
	var an *timing.Analysis
	if err := c.do("timing.s", func() (err error) { an, err = timing.Analyze(pk, p, pl, r); return }); err != nil {
		return compiled{}, err
	}

	c.stage = "PowerModel"
	clock := o.ClockHz
	if clock == 0 {
		clock = an.MaxClockHz
	}
	var act *sim.Activity
	if err := c.do("sim.activity_s", func() (err error) {
		act, err = sim.EstimateActivityObs(mapped.Netlist, o.ActivityCycles, 0.5, o.Seed, c.tr)
		return
	}); err != nil {
		return compiled{}, err
	}
	var rep *power.Report
	if err := c.do("power.s", func() (err error) { rep, err = power.Estimate(pk, p, pl, r, act, clock); return }); err != nil {
		return compiled{}, err
	}

	c.stage = "DAGGER"
	var bs *bitstream.Bitstream
	var enc []byte
	if err := c.do("bitstream.s", func() (err error) {
		if bs, err = bitstream.Generate(pk, p, pl, r); err != nil {
			return err
		}
		enc, err = bitstream.Encode(bs)
		return
	}); err != nil {
		return compiled{}, err
	}
	c.count["bitstream.bytes"] += float64(len(enc))
	if err := c.check(check.StageBitstream, &check.Artifacts{Encoded: enc, Arch: a, Packing: pk, Problem: p,
		Placement: pl, Graph: r.Graph, Routing: r, Bitstream: bs}); err != nil {
		return compiled{}, err
	}

	c.stage = "Verify"
	var ex *netlist.Netlist
	if err := c.do("bitstream.s", func() error {
		dec, err := bitstream.Decode(enc)
		if err != nil {
			return err
		}
		ex, err = bitstream.Extract(dec)
		return err
	}); err != nil {
		return compiled{}, err
	}
	if err := c.do("sim.verify_s", func() error { return sim.CheckEquivalent(source, ex, 12, 400, o.Seed+1) }); err != nil {
		return compiled{}, err
	}
	return compiled{encoded: enc, q: qor{luts: mapped.LUTs, width: r.Graph.W, wirelength: r.WirelengthUsed(),
		critNS: an.CriticalPath * 1e9, energyPJ: rep.Total / clock * 1e12}}, nil
}

// finish copies the program's counters of the pass into the count metrics.
func (c *chain) finish() {
	ctr := c.tr.Counters()
	for metric, counter := range map[string]string{
		"place.moves": "place.moves", "place.accepted": "place.accepted",
		"route.heap_pops": "route.heap_pops", "route.iterations": "route.iterations",
		"route.width_trials": "route.width_trials", "rrgraph.builds": "rrgraph.cache_misses",
		"sim.cycles": "sim.cycles", "check.rules_run": "check.rules_run",
	} {
		c.count[metric] = float64(ctr[counter])
	}
}

// looksLikeBLIF is fpgaflow.Run's input sniff: the first line that is not
// blank or a comment is a BLIF directive.
func looksLikeBLIF(src string) bool {
	for _, line := range bytes.Split([]byte(src), []byte("\n")) {
		line = bytes.TrimSpace(line)
		if len(line) == 0 || line[0] == '#' {
			continue
		}
		return bytes.HasPrefix(line, []byte(".model")) || bytes.HasPrefix(line, []byte(".inputs"))
	}
	return false
}

// fill applies core's option defaults that the chain depends on.
func fill(o fpgaflow.Options) fpgaflow.Options {
	if o.PlaceEffort == 0 {
		o.PlaceEffort = 1
	}
	if o.ActivityCycles == 0 {
		o.ActivityCycles = 500
	}
	return o
}

// chainPass runs the layer chain over a list of compiles and checks each
// against the untraced compile of the same input.
func (b *bench) chainPass(srcs []string, opts []fpgaflow.Options, want []compiled, names []string) (*chain, float64) {
	c := newChain()
	t := time.Now()
	for i, src := range srcs {
		got, err := c.compile(src, fill(opts[i]))
		if b.t.op(err, "traced compile "+names[i]) {
			b.t.check(got.q == want[i].q && bytes.Equal(got.encoded, want[i].encoded),
				"traced chain reproduces fpgaflow.Run's QoR and bitstream for %s", names[i])
		}
	}
	wall := time.Since(t).Seconds()
	c.finish()
	return c, wall
}

// stageSeconds compiles each input through fpgaflow.Run with Options.Obs
// and sums the program's own flow.stage_seconds per stage.
func (b *bench) stageSeconds(srcs []string, opts []fpgaflow.Options, names []string) map[string]float64 {
	out := map[string]float64{}
	for i, src := range srcs {
		tr := obs.New(names[i])
		o := opts[i]
		o.Obs = tr
		_, err := fpgaflow.Run(src, o)
		b.t.op(err, "observed compile "+names[i])
		for stage, h := range tr.HistogramVec("flow.stage_seconds", "stage").Snapshots() {
			out[stage] += h.Sum
		}
	}
	return out
}

// printShares prints each flow stage's share of a traced pass as the
// benchmark's own timers saw it, beside the share the program's
// flow.stage_seconds histogram reports for the same designs.
func (b *bench) printShares(bench, program map[string]float64) {
	var tb, tp float64
	for _, v := range bench {
		tb += v
	}
	for _, v := range program {
		tp += v
	}
	stages := make([]string, 0, len(bench))
	for s := range bench {
		stages = append(stages, s)
	}
	sort.Slice(stages, func(i, j int) bool { return stageRank(stages[i]) < stageRank(stages[j]) })
	b.note("%-12s %8s %8s   (stage share of a traced pass: benchmark timers vs flow.stage_seconds)", "stage", "bench", "program")
	for _, s := range stages {
		p := "-"
		if v, ok := program[s]; ok {
			p = fmt.Sprintf("%7.2f%%", 100*v/tp)
		}
		b.note("%-12s %7.2f%% %8s", s, 100*bench[s]/tb, p)
	}
}

// stageOrder is the flow's stage sequence (core's tool names).
var stageOrder = []string{"BLIF", "VHDL Parser", "DIVINER", "DRUID", "E2FMT", "SIS", "LUT map",
	"T-VPack", "DUTYS", "VPR place", "VPR route", "Timing", "PowerModel", "DAGGER", "Verify"}

func stageRank(s string) int {
	for i, t := range stageOrder {
		if t == s {
			return i
		}
	}
	return len(stageOrder)
}

// layerTimes are the per-layer time metrics every traced run reports.
var layerTimes = []string{"vhdl.s", "edif.s", "netlist.s", "logic.s", "techmap.s", "pack.s", "place.s",
	"route.s", "timing.s", "sim.activity_s", "sim.verify_s", "power.s", "bitstream.s", "check.s"}

// setLayers reports the median over traced passes of each layer metric.
func (b *bench) setLayers(cs []*chain) {
	series := func(f func(c *chain) float64) []float64 {
		xs := make([]float64, len(cs))
		for i, c := range cs {
			xs[i] = f(c)
		}
		return xs
	}
	for _, l := range layerTimes {
		b.set(l, median(series(func(c *chain) float64 { return c.sec[l] })), "s")
	}
	for _, l := range []string{"logic", "techmap", "route", "bitstream"} {
		b.set(l+".alloc_mb", median(series(func(c *chain) float64 { return c.alloc[l+".s"] })), "MiB")
	}
	for _, n := range []string{"logic.gates_out", "techmap.luts", "pack.clbs", "place.moves", "route.heap_pops",
		"route.iterations", "route.width_trials", "rrgraph.builds", "sim.cycles", "bitstream.bytes", "check.rules_run"} {
		b.set(n, median(series(func(c *chain) float64 { return c.count[n] })), "count")
	}
	b.set("place.accept_frac", median(series(func(c *chain) float64 {
		return c.count["place.accepted"] / max(c.count["place.moves"], 1)
	})), "frac")
	var total float64
	for _, l := range layerTimes {
		total += b.metrics[l].Value
	}
	for _, l := range layerTimes {
		b.note("layer %-16s %10.6f s  %6.2f%%", l, b.metrics[l].Value, 100*b.metrics[l].Value/total)
	}
}

// tracedCompile is the --trace 1 run of a compile workload: untraced and
// traced passes alternate, and the first round adds the program's own
// stage timing (cross-check) and one pass through a job service for the
// jobs/flow boundary.
func (b *bench) tracedCompile(w compileWorkload, ds []design) error {
	srcs, names := make([]string, len(ds)), make([]string, len(ds))
	opts := make([]fpgaflow.Options, len(ds))
	for i, d := range ds {
		srcs[i], names[i], opts[i] = d.source, d.name, b.flowOptions(w, d)
	}
	var untraced []float64
	var chains []*chain
	var traced []float64
	start := time.Now()
	for round, last := 0, 0.0; round == 0 || time.Since(start).Seconds()+last <= b.opt.seconds; round++ {
		t := time.Now()
		p := b.compilePass(w, ds)
		untraced = append(untraced, p.r.wall)
		c, wall := b.chainPass(srcs, opts, p.designs, names)
		chains, traced = append(chains, c), append(traced, wall)
		last = time.Since(t).Seconds()
		if round == 0 {
			b.printShares(c.stages, b.stageSeconds(srcs, opts, names))
			if err := b.jobsPass(ds, w.opts.MinChannelWidth, p.designs); err != nil {
				return err
			}
		}
	}
	b.setLayers(chains)
	b.set("trace.overhead_frac", median(traced)/median(untraced)-1, "frac")
	b.note("trace.overhead_frac: traced %v s vs untraced %v s", traced, untraced)
	return nil
}
