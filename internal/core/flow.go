// Package core implements the paper's primary contribution: the integrated
// design framework that chains every tool of the flow (Fig. 11) from a VHDL
// description down to the FPGA configuration bitstream:
//
//	VHDL Parser -> DIVINER (synthesis) -> DRUID (EDIF normalization) ->
//	E2FMT (EDIF to BLIF) -> SIS (logic optimization, LUT mapping) ->
//	T-VPack (packing) -> DUTYS (architecture file) -> VPR (placement and
//	routing) -> PowerModel -> DAGGER (bitstream)
//
// Each stage can also be driven standalone through the cmd/ tools; this
// package provides the end-to-end orchestration, per-stage metrics, and the
// closing verification that extracts the netlist back out of the bitstream
// and checks functional equivalence against the elaborated source.
package core

import (
	"context"
	"fmt"
	"runtime/debug"
	"time"

	"fpgaflow/internal/arch"
	"fpgaflow/internal/bitstream"
	"fpgaflow/internal/check"
	"fpgaflow/internal/edif"
	"fpgaflow/internal/fault"
	"fpgaflow/internal/logic"
	"fpgaflow/internal/netlist"
	"fpgaflow/internal/obs"
	"fpgaflow/internal/obs/events"
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

// MapperKind selects the LUT mapping algorithm.
type MapperKind int

const (
	// MapFlowMap is depth-optimal FlowMap (default).
	MapFlowMap MapperKind = iota
	// MapGreedy is the area-oriented greedy baseline.
	MapGreedy
)

// Options configures a flow run.
type Options struct {
	// Arch is the target platform; nil selects the paper architecture with
	// an auto-sized grid. A non-nil Arch keeps its grid exactly (placement
	// fails if the design does not fit) unless AutoSizeGrid is set.
	Arch *arch.Arch
	// AutoSizeGrid resizes a provided Arch's grid to fit the design.
	AutoSizeGrid bool
	// Top names the top VHDL entity ("" = auto).
	Top string
	// Mapper selects the LUT mapper.
	Mapper MapperKind
	// Seed drives placement and activity estimation.
	Seed int64
	// PlaceEffort scales annealing moves (VPR inner_num; default 1 for
	// speed, 10 for quality).
	PlaceEffort float64
	// RouteMaxIters bounds PathFinder iterations.
	RouteMaxIters int
	// MinChannelWidth binary-searches the smallest routable W instead of
	// using the architecture's fixed width.
	MinChannelWidth bool
	// Profile selects a named QoR objective (min-delay, min-energy,
	// min-area) that turns on the matching option flags below; see
	// ParseProfile. The zero value is the balanced wirelength-driven flow.
	Profile Profile
	// TimingDrivenPlace weights placement cost by net criticality (depth
	// through the mapped netlist), trading wirelength for critical path.
	TimingDrivenPlace bool
	// TimingDrivenRoute weights routing base costs by resource RC delay.
	TimingDrivenRoute bool
	// CriticalityDrivenRoute closes the timing loop inside the router:
	// per-net criticalities (static depth estimate before the first
	// PathFinder iteration, slack-derived from the committed routing after
	// every iteration) blend into the congestion cost so critical nets take
	// fast paths while relaxed nets absorb detours. Implies
	// TimingDrivenRoute. Bit-identical for every worker count: the
	// recompute is a pure function of the committed routing.
	CriticalityDrivenRoute bool
	// EnergyDrivenRoute weights routing base costs by node capacitance so
	// nets prefer low-C resources. Ignored when a timing-driven route mode
	// is on.
	EnergyDrivenRoute bool
	// PowerAwarePack groups registered BLEs into shared clusters so gated
	// clock trees cover fewer CLBs (pack.Params.GroupGated).
	PowerAwarePack bool
	// PlaceSeeds runs that many independent annealing seeds in parallel and
	// keeps the cheapest placement (0/1 = single seed).
	PlaceSeeds int
	// PlaceWorkers is the number of concurrent annealer move-evaluation
	// workers (the CLI -j knob): 0 uses GOMAXPROCS, 1 evaluates serially.
	// The placement is bit-identical for every value — see
	// place.Options.Workers.
	PlaceWorkers int
	// RouteWorkers is the number of concurrent net-routing workers inside
	// each PathFinder iteration (the CLI -j knob): 0 uses GOMAXPROCS, 1
	// routes serially. The routing result is identical for every value —
	// see route.Options.Workers.
	RouteWorkers int
	// FixedPads pins primary input pads ("a") and output pads ("out:a") to
	// grid locations, keeping the pinout stable across compilations.
	FixedPads map[string]place.Location
	// ClockHz is the power-estimation clock; 0 uses the maximum frequency
	// from timing analysis.
	ClockHz float64
	// ActivityCycles controls the simulation length for switching
	// activities (default 500).
	ActivityCycles int
	// SkipVerify disables the closing bitstream-extraction equivalence
	// check (it is the most expensive step on large designs).
	SkipVerify bool
	// SkipChecks disables the stage-boundary static verification
	// (internal/check) that otherwise runs after every stage and fails
	// fast on error-severity diagnostics.
	SkipChecks bool
	// DisableChecks suppresses individual check rules by ID
	// (see docs/CHECKS.md for the rule list and suppression policy).
	DisableChecks []string
	// OptimizeOptions tunes the SIS stage.
	OptimizeOptions logic.Options
	// Defects injects an imperfect fabric (see internal/fault): placement
	// avoids defective sites, routing masks dead wires and switches
	// (re-applied at every channel-width escalation), and the stage-boundary
	// checks verify no configured resource lands on a defect. Injection
	// totals are reported on fault.* counters.
	Defects *fault.DefectMap
	// StageTimeout bounds each stage's wall time (0 = unbounded). A stage
	// that overruns fails with a StageError wrapping
	// context.DeadlineExceeded; placement and routing cancel cooperatively,
	// other stages are abandoned after a short grace period.
	StageTimeout time.Duration
	// Retry configures the hardened runner: re-seeded attempts, channel
	// width escalation and backoff (see RetryPolicy). Zero value = one
	// attempt, no degradation.
	Retry RetryPolicy
	// Obs receives per-stage spans and stage-specific counters for the run.
	// nil falls back to the process-global trace (obs.Global), which is
	// itself a no-op unless a main installed one.
	Obs *obs.Trace
	// Events receives the iteration-level telemetry stream: stage
	// boundaries, hardened-runner decisions (attempts, retries,
	// escalations), one event per annealing temperature step and per
	// PathFinder iteration, and the final fabric occupancy/congestion maps
	// the heatmap artifact derives from. nil disables the stream at the
	// cost of one atomic load per publish site (see internal/obs/events).
	Events *events.Bus
}

// trace resolves the effective observability trace for the run.
func (o *Options) trace() *obs.Trace {
	if o.Obs != nil {
		return o.Obs
	}
	return obs.Global()
}

// placeCritAlpha is the timing-driven placement trade-off between
// wirelength and criticality weighting (place.CriticalityWeights alpha).
const placeCritAlpha = 8

func (o *Options) fill() {
	o.Profile.apply(o)
	if o.CriticalityDrivenRoute {
		o.TimingDrivenRoute = true
	}
	if o.TimingDrivenRoute {
		o.EnergyDrivenRoute = false
	}
	if o.PlaceEffort == 0 {
		o.PlaceEffort = 1
	}
	if o.ActivityCycles == 0 {
		o.ActivityCycles = 500
	}
}

// Stage records one tool invocation. Duration is the stage's own wall
// time, measured by its observability span (every stage records its own
// timing; nothing is stamped at flow end).
type Stage struct {
	Tool     string
	Detail   string
	Duration time.Duration
	// CPU is the process CPU time consumed during the stage (may exceed
	// Duration for parallel stages); zero when unavailable.
	CPU time.Duration
	// AllocBytes is the heap allocated during the stage
	// (runtime.MemStats.TotalAlloc delta).
	AllocBytes uint64
}

// Result is the complete output of a flow run.
type Result struct {
	Stages []Stage

	// tr is the observability trace for this run (possibly nil).
	tr *obs.Trace

	// Source is the elaborated (pre-optimization) netlist, the reference
	// for all equivalence checks.
	Source *netlist.Netlist
	// EDIF is the DIVINER output after DRUID normalization.
	EDIF string
	// OptimizedBLIF is the netlist after the SIS stage.
	OptimizedBLIF string
	// Mapped is the K-LUT network.
	Mapped *techmap.Result
	// ArchFile is the DUTYS architecture description used.
	ArchFile string
	Arch     *arch.Arch
	Packing  *pack.Packing
	Problem  *place.Problem
	Placed   *place.Placement
	Routed   *route.Result
	Timing   *timing.Analysis
	Power    *power.Report
	Bits     *bitstream.Bitstream
	// Encoded is the binary bitstream.
	Encoded []byte
	// Verified is true when the bitstream extraction matched the source.
	Verified bool

	Metrics Metrics
}

// Metrics summarizes the run for tables.
type Metrics struct {
	Name           string
	SourceGates    int
	LUTs           int
	Depth          int
	CLBs           int
	GridW, GridH   int
	ChannelWidth   int
	WirelengthUsed int
	CriticalPath   float64
	MaxClockMHz    float64
	DataRateMbps   float64
	PowerTotalMW   float64
	// EnergyPJ is the energy per clock cycle in picojoules: total power at
	// the power-model clock divided by that clock. The min-energy profile
	// and benchgate's -energy-tol gate optimize and police this number.
	EnergyPJ      float64
	BitstreamBits int
	Utilization   float64
	// AreaUnits is the fabric area in minimum-width transistor areas
	// (the VPR area model over the sized grid).
	AreaUnits float64
}

// RunVHDL executes the full flow on VHDL source.
func RunVHDL(src string, opts Options) (*Result, error) {
	return RunVHDLContext(context.Background(), src, opts)
}

// RunVHDLContext executes the full flow on VHDL source under a context:
// cancellation and deadlines propagate into every stage, stage panics come
// back as structured *StageError values, and the options' RetryPolicy
// governs re-seeded attempts and graceful degradation.
func RunVHDLContext(ctx context.Context, src string, opts Options) (*Result, error) {
	return runFlow(ctx, src, false, opts)
}

// RunBLIF enters the flow at the BLIF stage with a BLIF netlist.
func RunBLIF(blifText string, opts Options) (*Result, error) {
	return RunBLIFContext(context.Background(), blifText, opts)
}

// RunBLIFContext is RunBLIF under a context and the hardened runner (see
// RunVHDLContext).
func RunBLIFContext(ctx context.Context, blifText string, opts Options) (*Result, error) {
	return runFlow(ctx, blifText, true, opts)
}

// runFlow walks the stage table under the hardened runner.
func runFlow(ctx context.Context, src string, fromBLIF bool, opts Options) (*Result, error) {
	// One RR-graph cache per hardened run: re-seeded retries and
	// channel-width escalation revisit the same (arch, W) graphs, and each
	// trial gets a private clone so per-attempt defect masks never
	// cross-contaminate.
	rr := rrgraph.NewCache(0)
	return runRetry(ctx, opts, func(ctx context.Context, o Options) (*Result, error) {
		a := o.Arch
		if a == nil {
			a = arch.Paper()
		}
		r := &flowRun{Result: &Result{tr: o.trace(), Arch: a.Clone()}, opts: &o, rr: rr,
			src: src, fromBLIF: fromBLIF}
		if fromBLIF {
			r.blif = src
		}
		o.Defects.Record(r.tr)
		for i := range flowStages {
			st := &flowStages[i]
			if st.skip != nil && st.skip(r) {
				continue
			}
			if err := r.stage(ctx, st); err != nil {
				return r.Result, err
			}
		}
		return r.Result, nil
	})
}

// flowRun is the state one flow attempt threads through the stage table:
// the result under construction plus the intermediate artifacts that pass
// between stages without being part of the Result.
type flowRun struct {
	*Result
	opts     *Options
	rr       *rrgraph.Cache
	src      string
	fromBLIF bool
	design   *vhdl.Design     // VHDL Parser -> DIVINER
	blif     string           // the BLIF netlist entering SIS
	working  *netlist.Netlist // SIS -> LUT map
}

// flowStage is one row of the flow table.
type flowStage struct {
	// tool names the stage in Result.Stages, spans, events and errors.
	tool string
	// seedDependent marks stages whose outcome depends on the placement
	// seed: their failures are worth a re-seeded retry. Everything upstream
	// of placement is deterministic in the input alone.
	seedDependent bool
	// run does the stage's work and returns its one-line detail.
	run func(r *flowRun, ctx context.Context) (string, error)
	// check is the internal/check rule set the artifacts from arts are
	// linted against after run (nil arts: no stage-boundary lint).
	check check.Stage
	arts  func(r *flowRun) *check.Artifacts
	// lintInput lints before run instead of after it, so malformed input
	// fails on a named rule rather than on the parser's error.
	lintInput bool
	// skip reports that this run bypasses the stage.
	skip func(r *flowRun) bool
}

// flowStages is the flow of Fig. 11 in execution order. VHDL runs enter
// at the VHDL Parser, BLIF runs at the BLIF stage; both continue at SIS.
var flowStages = []flowStage{
	{tool: "BLIF", run: (*flowRun).parseBLIF, skip: fromVHDL,
		check: check.StageNetlist, arts: blifText, lintInput: true},
	{tool: "VHDL Parser", run: (*flowRun).parseVHDL, skip: fromBLIF},
	{tool: "DIVINER", run: (*flowRun).synthesize, skip: fromBLIF},
	{tool: "DRUID", run: (*flowRun).druid, skip: fromBLIF},
	// Linting the produced BLIF here pins a multi-driven net on E2FMT, not SIS.
	{tool: "E2FMT", run: (*flowRun).e2fmt, skip: fromBLIF,
		check: check.StageNetlist, arts: blifText},
	{tool: "SIS", run: (*flowRun).optimize, check: check.StageNetlist,
		arts: func(r *flowRun) *check.Artifacts { return &check.Artifacts{Netlist: r.working} }},
	{tool: "LUT map", run: (*flowRun).lutMap, check: check.StageNetlist,
		arts: func(r *flowRun) *check.Artifacts { return &check.Artifacts{Netlist: r.Mapped.Netlist, K: r.Arch.CLB.K} }},
	{tool: "T-VPack", run: (*flowRun).pack, check: check.StagePack,
		arts: func(r *flowRun) *check.Artifacts { return &check.Artifacts{Packing: r.Packing} }},
	{tool: "DUTYS", run: (*flowRun).dutys},
	{tool: "VPR place", seedDependent: true, run: (*flowRun).place, check: check.StagePlace,
		arts: func(r *flowRun) *check.Artifacts { return &check.Artifacts{Problem: r.Problem, Placement: r.Placed} }},
	{tool: "VPR route", seedDependent: true, run: (*flowRun).route, check: check.StageRoute,
		arts: func(r *flowRun) *check.Artifacts {
			return &check.Artifacts{Graph: r.Routed.Graph, Routing: r.Routed,
				Problem: r.Problem, Placement: r.Placed}
		}},
	// Timing feeds the power model's default clock.
	{tool: "Timing", seedDependent: true, run: (*flowRun).timing},
	{tool: "PowerModel", seedDependent: true, run: (*flowRun).power},
	{tool: "DAGGER", seedDependent: true, run: (*flowRun).dagger, check: check.StageBitstream,
		arts: func(r *flowRun) *check.Artifacts {
			return &check.Artifacts{Encoded: r.Encoded, Arch: r.Arch, Packing: r.Packing,
				Problem: r.Problem, Placement: r.Placed,
				Graph: r.Routed.Graph, Routing: r.Routed, Bitstream: r.Bits}
		}},
	// Closing verification: decode + extract + equivalence.
	{tool: "Verify", seedDependent: true, run: (*flowRun).verify,
		skip: func(r *flowRun) bool { return r.opts.SkipVerify }},
}

func fromVHDL(r *flowRun) bool { return !r.fromBLIF }
func fromBLIF(r *flowRun) bool { return r.fromBLIF }

func blifText(r *flowRun) *check.Artifacts { return &check.Artifacts{BLIF: r.blif} }

func (r *flowRun) parseBLIF(context.Context) (string, error) {
	nl, err := netlist.ParseBLIF(r.blif)
	if err != nil {
		return "", err
	}
	st := r.setSource(nl)
	return fmt.Sprintf("%d gates, %d FFs", st.Logic, st.Latches), nil
}

func (r *flowRun) parseVHDL(context.Context) (string, error) {
	var err error
	r.design, err = vhdl.Parse(r.src)
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("%d entities", len(r.design.Entities)), nil
}

func (r *flowRun) synthesize(context.Context) (string, error) {
	nl, err := vhdl.Elaborate(r.design, r.opts.Top)
	if err != nil {
		return "", err
	}
	st := r.setSource(nl)
	r.tr.Add("synth.gates", int64(st.Logic))
	r.tr.Add("synth.ffs", int64(st.Latches))
	return fmt.Sprintf("%d gates, %d FFs", st.Logic, st.Latches), nil
}

// setSource installs the reference netlist every equivalence check is
// made against.
func (r *flowRun) setSource(nl *netlist.Netlist) netlist.Stats {
	st := nl.Stats()
	r.Source = nl
	r.Metrics.Name = nl.Name
	r.Metrics.SourceGates = st.Logic
	return st
}

func (r *flowRun) druid(context.Context) (string, error) {
	text, err := edif.Write(r.Source)
	if err != nil {
		return "", err
	}
	r.EDIF, err = edif.Druid(text)
	return "", err
}

func (r *flowRun) e2fmt(context.Context) (string, error) {
	var err error
	r.blif, err = edif.E2FMT(r.EDIF)
	return "", err
}

// optimize is SIS: technology-independent optimization and decomposition.
func (r *flowRun) optimize(context.Context) (string, error) {
	nl, err := netlist.ParseBLIF(r.blif)
	if err != nil {
		return "", err
	}
	if err := logic.Optimize(nl, r.opts.OptimizeOptions); err != nil {
		return "", err
	}
	if err := logic.Decompose(nl); err != nil {
		return "", err
	}
	r.working = nl
	r.OptimizedBLIF = netlist.FormatBLIF(nl)
	return fmt.Sprintf("%d gates after optimization", nl.Stats().Logic), nil
}

func (r *flowRun) lutMap(context.Context) (string, error) {
	k := r.Arch.CLB.K
	var mapped *techmap.Result
	var err error
	if r.opts.Mapper == MapGreedy {
		mapped, err = techmap.MapGreedy(r.working, k)
	} else {
		mapped, err = techmap.FlowMap(r.working, k)
	}
	if err != nil {
		return "", err
	}
	r.Mapped = mapped
	r.Metrics.LUTs = mapped.LUTs
	r.Metrics.Depth = mapped.Depth
	r.tr.Add("flow.luts", int64(mapped.LUTs))
	r.tr.SetGauge("lutmap.depth", float64(mapped.Depth))
	return fmt.Sprintf("%d LUTs, depth %d", mapped.LUTs, mapped.Depth), nil
}

// pack is T-VPack.
func (r *flowRun) pack(context.Context) (string, error) {
	a := r.Arch
	pk, err := pack.Pack(r.Mapped.Netlist, pack.Params{
		N: a.CLB.N, K: a.CLB.K, I: a.CLB.I, GroupGated: r.opts.PowerAwarePack})
	if err != nil {
		return "", err
	}
	r.Packing = pk
	pk.Record(r.tr)
	r.Metrics.CLBs = len(pk.Clusters)
	r.Metrics.Utilization = pk.Utilization()
	r.tr.Add("flow.clbs", int64(len(pk.Clusters)))
	detail := fmt.Sprintf("%d CLBs, %.0f%% BLE utilization", len(pk.Clusters), 100*pk.Utilization())
	if r.opts.PowerAwarePack {
		detail += fmt.Sprintf(", %d clocked", pk.ClockedClusters())
	}
	return detail, nil
}

// dutys sizes the grid and writes the architecture file.
func (r *flowRun) dutys(context.Context) (string, error) {
	a := r.Arch
	p, err := place.NewProblem(a, r.Packing)
	if err != nil {
		return "", err
	}
	if r.opts.Arch == nil || r.opts.AutoSizeGrid {
		p.AutoSize()
	} else {
		clbs, pads := p.CountKinds()
		if clbs > a.LogicCapacity() || pads > a.IOCapacity() {
			return "", fmt.Errorf("core: design needs %d CLBs / %d pads; fixed %dx%d grid offers %d / %d",
				clbs, pads, a.Cols, a.Rows, a.LogicCapacity(), a.IOCapacity())
		}
	}
	r.Problem = p
	r.ArchFile = arch.Format(a)
	r.Metrics.GridW, r.Metrics.GridH = a.Cols, a.Rows
	return fmt.Sprintf("%dx%d grid", a.Cols, a.Rows), nil
}

func (r *flowRun) place(ctx context.Context) (string, error) {
	opts := r.opts
	popts := place.Options{Seed: opts.Seed, InnerNum: opts.PlaceEffort, Fixed: opts.FixedPads, Obs: r.tr,
		Ctx: ctx, Bad: opts.Defects.BadSiteSet(), Events: opts.Events, Workers: opts.PlaceWorkers}
	mode := "wirelength-driven"
	if opts.TimingDrivenPlace {
		// Recomputed per attempt so every hardened-runner attempt weights
		// against the attempt's own packing.
		popts.Weights = place.CriticalityWeights(r.Packing, r.Problem, placeCritAlpha)
		mode = "timing-driven"
	}
	var pl *place.Placement
	var err error
	if opts.PlaceSeeds > 1 {
		pl, err = place.PlaceBest(r.Problem, popts, opts.PlaceSeeds)
		mode = fmt.Sprintf("%s, best of %d seeds", mode, opts.PlaceSeeds)
	} else {
		pl, err = place.Place(r.Problem, popts)
	}
	if err != nil {
		return "", err
	}
	r.Placed = pl
	return fmt.Sprintf("cost %.1f (%s)", pl.Cost, mode), nil
}

func (r *flowRun) route(ctx context.Context) (string, error) {
	opts, a := r.opts, r.Arch
	ropts := route.Options{MaxIters: opts.RouteMaxIters, DelayDriven: opts.TimingDrivenRoute,
		EnergyDriven: opts.EnergyDrivenRoute, Obs: r.tr, Ctx: ctx,
		Workers: opts.RouteWorkers, Cache: r.rr, Events: opts.Events}
	if opts.CriticalityDrivenRoute {
		pk, p, pl := r.Packing, r.Problem, r.Placed
		ropts.Criticality = func(g *rrgraph.Graph, routes []*route.NetRoute) []float64 {
			if routes == nil {
				// First iteration: no routed delays yet; seed with the
				// combinational-depth estimate.
				return timing.StaticNetCriticalities(pk, p)
			}
			nc, err := timing.AnalyzeNetCriticalities(pk, p, pl, &route.Result{Routes: routes, Graph: g})
			if err != nil {
				return nil // keep last criticalities on a mid-route analysis failure
			}
			return nc
		}
	}
	if opts.Defects != nil {
		// Re-applied at every channel-width trial: defects are keyed by
		// structural coordinates, so they survive RR-graph rebuilds and
		// any tracks added by escalation are defect-free.
		ropts.Mask = func(g *rrgraph.Graph) {
			st := opts.Defects.Apply(g)
			r.tr.Add("fault.rr_dead_nodes", int64(st.DeadWires))
			r.tr.Add("fault.rr_edges_removed", int64(st.EdgesRemoved))
		}
	}
	if opts.MinChannelWidth {
		w, rt, err := route.MinChannelWidth(r.Problem, r.Placed, 1, a.Routing.ChannelWidth, ropts)
		if err != nil {
			return "", err
		}
		a.Routing.ChannelWidth = w
		r.Routed = rt
	} else {
		g, err := r.rr.Get(a, r.tr)
		if err != nil {
			return "", err
		}
		if ropts.Mask != nil {
			ropts.Mask(g)
		}
		rt, err := route.Route(r.Problem, r.Placed, g, ropts)
		if err != nil {
			return "", err
		}
		if !rt.Success {
			return "", fmt.Errorf("core: %w at W=%d (%d overused)", route.ErrUnroutable, a.Routing.ChannelWidth, rt.Overused)
		}
		r.Routed = rt
	}
	if err := r.Routed.Validate(r.Problem, r.Placed); err != nil {
		return "", err
	}
	r.Metrics.ChannelWidth = r.Routed.Graph.W
	r.Metrics.WirelengthUsed = r.Routed.WirelengthUsed()
	r.tr.Add("flow.channel_width", int64(r.Routed.Graph.W))
	r.tr.Add("route.wirelength", int64(r.Metrics.WirelengthUsed))
	r.tr.Add("flow.nets", int64(len(r.Routed.Routes)))
	return fmt.Sprintf("W=%d, %d wire segments", r.Routed.Graph.W, r.Metrics.WirelengthUsed), nil
}

func (r *flowRun) timing(context.Context) (string, error) {
	an, err := timing.Analyze(r.Packing, r.Problem, r.Placed, r.Routed)
	if err != nil {
		return "", err
	}
	r.Timing = an
	r.Metrics.CriticalPath = an.CriticalPath
	r.Metrics.MaxClockMHz = an.MaxClockHz / 1e6
	r.Metrics.DataRateMbps = an.MaxDataRateHz / 1e6
	r.tr.SetGauge("timing.critical_path_ns", an.CriticalPath*1e9)
	r.tr.SetGauge("timing.fmax_mhz", an.MaxClockHz/1e6)
	return fmt.Sprintf("%.2f ns critical path", an.CriticalPath*1e9), nil
}

// power is the PowerModel stage; it closes by publishing the design's QoR
// record, which needs the power figures.
func (r *flowRun) power(context.Context) (string, error) {
	opts := r.opts
	clock := opts.ClockHz
	if clock == 0 {
		clock = r.Timing.MaxClockHz
	}
	act, err := sim.EstimateActivityObs(r.Mapped.Netlist, opts.ActivityCycles, 0.5, opts.Seed, r.tr)
	if err != nil {
		return "", err
	}
	rep, err := power.Estimate(r.Packing, r.Problem, r.Placed, r.Routed, act, clock)
	if err != nil {
		return "", err
	}
	r.Power = rep
	r.Metrics.PowerTotalMW = rep.Total * 1e3
	r.Metrics.EnergyPJ = rep.Total / clock * 1e12
	r.tr.SetGauge("power.total_mw", rep.Total*1e3)
	r.tr.SetGauge("power.energy_pj", r.Metrics.EnergyPJ)
	r.Metrics.AreaUnits = power.FabricAreaMinWidthUnits(r.Arch)
	// The per-design QoR record: the delay/energy numbers the golden suite
	// and benchgate gate on, tagged with the profile that produced them.
	if opts.Events.Enabled() {
		opts.Events.Publish(events.Event{Kind: events.KindQoR, QoR: &events.QoREvent{
			Design:         r.Metrics.Name,
			Profile:        string(opts.Profile),
			ChannelWidth:   r.Metrics.ChannelWidth,
			Wirelength:     r.Metrics.WirelengthUsed,
			CriticalPathNS: r.Metrics.CriticalPath * 1e9,
			PowerMW:        r.Metrics.PowerTotalMW,
			EnergyPJ:       r.Metrics.EnergyPJ,
		}})
	}
	return fmt.Sprintf("%.3f mW at %.0f MHz", rep.Total*1e3, clock/1e6), nil
}

// dagger generates and encodes the bitstream.
func (r *flowRun) dagger(context.Context) (string, error) {
	bs, err := bitstream.Generate(r.Packing, r.Problem, r.Placed, r.Routed)
	if err != nil {
		return "", err
	}
	r.Bits = bs
	r.Encoded, err = bitstream.Encode(bs)
	if err != nil {
		return "", err
	}
	r.Metrics.BitstreamBits = len(r.Encoded) * 8
	r.tr.Add("flow.bitstream_bits", int64(r.Metrics.BitstreamBits))
	return fmt.Sprintf("%d bytes", len(r.Encoded)), nil
}

func (r *flowRun) verify(context.Context) (string, error) {
	bs, err := bitstream.Decode(r.Encoded)
	if err != nil {
		return "", err
	}
	extracted, err := bitstream.Extract(bs)
	if err != nil {
		return "", err
	}
	if err := sim.CheckEquivalent(r.Source, extracted, 12, 400, r.opts.Seed+1); err != nil {
		return "", fmt.Errorf("core: bitstream does not implement the source design: %w", err)
	}
	r.Verified = true
	r.tr.Add("verify.equivalence_checks", 1)
	return "bitstream equivalent to source", nil
}

// lint executes the stage's internal/check rule set, records diagnostic
// counts on the run's trace and fails fast when any error-severity
// diagnostic fired.
func (r *flowRun) lint(st *flowStage) error {
	if st.arts == nil || r.opts.SkipChecks {
		return nil
	}
	arts := st.arts(r)
	arts.Disable = r.opts.DisableChecks
	arts.Defects = r.opts.Defects
	rep := check.RunStage(st.check, arts)
	rep.Record(r.tr)
	return rep.Err()
}

// stageAbandonGrace is how long a deadline-exceeded stage gets to notice
// the cancellation before the runner abandons its goroutine and reports
// the timeout. Placement and routing cancel cooperatively well within
// this; CPU-bound stages without cancellation points are left to finish
// in the background.
const stageAbandonGrace = 250 * time.Millisecond

// stageOut is what a stage body hands back to the runner.
type stageOut struct {
	detail string
	err    error
}

// stage runs one table row. It is the single owner of everything every
// stage shares: the span, the Stage record, flow.stage_seconds and
// flow.stages, the stage events, the per-stage deadline, the panic shield
// and the retry classification of a failure.
func (r *flowRun) stage(ctx context.Context, st *flowStage) error {
	opts, tool := r.opts, st.tool
	if opts.Events.Enabled() {
		opts.Events.Publish(events.Event{Kind: events.KindStage,
			Stage: &events.StageEvent{Stage: tool, Phase: "start"}})
	}
	if err := ctx.Err(); err != nil {
		return &StageError{Stage: tool, Err: err}
	}
	sctx := ctx
	cancel := context.CancelFunc(func() {})
	if opts.StageTimeout > 0 {
		sctx, cancel = context.WithTimeout(ctx, opts.StageTimeout)
	}
	defer cancel()
	sp := r.tr.Start(tool)
	//fpgavet:ignore walltime stage wall-clock is telemetry only and never feeds QoR decisions
	start := time.Now()
	r.Stages = append(r.Stages, Stage{Tool: tool})
	var out stageOut
	if sctx.Done() == nil {
		// No deadline and no cancellable parent: run inline, no goroutine.
		out = r.shielded(sctx, st)
	} else {
		done := make(chan stageOut, 1)
		go func() { done <- r.shielded(sctx, st) }()
		select {
		case out = <-done:
		case <-sctx.Done():
			select {
			case out = <-done:
			case <-time.After(stageAbandonGrace):
				out = stageOut{err: sctx.Err()}
				r.tr.Add("flow.stage_abandoned", 1)
			}
		}
	}
	rec := &r.Stages[len(r.Stages)-1]
	rec.Detail = out.detail
	sp.SetDetail("%s", out.detail)
	sp.End()
	if sp != nil {
		// The span is the source of truth for the stage's own timing.
		rec.Duration = sp.Wall
		rec.CPU = sp.CPU
		rec.AllocBytes = sp.AllocBytes
		// Stage wall time feeds the farm's latency distribution, labeled by
		// stage (bounded: the stage set is fixed). The span already carries
		// the measurement, so no extra clock read happens here.
		r.tr.HistogramVec("flow.stage_seconds", "stage").Observe(tool, sp.Wall.Seconds())
	} else {
		//fpgavet:ignore walltime fallback duration telemetry when spans are disabled; reporting only
		rec.Duration = time.Since(start)
	}
	r.tr.Add("flow.stages", 1)
	if opts.Events.Enabled() {
		end := &events.StageEvent{Stage: tool, Phase: "end", WallNS: rec.Duration.Nanoseconds()}
		if out.err != nil {
			end.Err = out.err.Error()
		}
		opts.Events.Publish(events.Event{Kind: events.KindStage, Stage: end})
	}
	if out.err != nil {
		r.tr.Add("flow.stage_errors", 1)
		return &StageError{Stage: tool, Err: out.err, retryable: retryableCause(st, out.err)}
	}
	return nil
}

// shielded runs one stage's work and its stage-boundary lint, converting
// a panic into a *PanicError so one buggy stage cannot take down the whole
// runner (or the GUI server driving it).
func (r *flowRun) shielded(ctx context.Context, st *flowStage) (out stageOut) {
	defer func() {
		if v := recover(); v != nil {
			out = stageOut{err: &PanicError{Value: v, Stack: debug.Stack()}}
		}
	}()
	if st.lintInput {
		if err := r.lint(st); err != nil {
			return stageOut{err: err}
		}
	}
	out.detail, out.err = st.run(r, ctx)
	if out.err == nil && !st.lintInput {
		out.err = r.lint(st)
	}
	return out
}

// Summary renders the per-stage report like the GUI's log pane.
func (res *Result) Summary() string {
	out := fmt.Sprintf("design %s\n", res.Metrics.Name)
	for _, s := range res.Stages {
		out += fmt.Sprintf("  %-12s %-40s %8.2fms\n", s.Tool, s.Detail, float64(s.Duration.Microseconds())/1000)
	}
	m := res.Metrics
	out += fmt.Sprintf("  LUTs=%d depth=%d CLBs=%d grid=%dx%d W=%d crit=%.2fns fmax=%.1fMHz power=%.3fmW bits=%d\n",
		m.LUTs, m.Depth, m.CLBs, m.GridW, m.GridH, m.ChannelWidth,
		m.CriticalPath*1e9, m.MaxClockMHz, m.PowerTotalMW, m.BitstreamBits)
	return out
}
