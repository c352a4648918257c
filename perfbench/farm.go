package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"time"

	"fpgaflow"
	"fpgaflow/internal/core"
	"fpgaflow/internal/jobs"
	"fpgaflow/internal/obs"
)

// The farm workload is a closed loop: cpus() clients each submit a job
// and Wait for it before submitting the next, against one long-lived
// jobs.Service with cpus() workers, a real on-disk WAL in a fresh state
// directory, no tenant quota, and the default queue limit (above the
// client count). Throughput is whatever the program sustains; nothing
// paces the clients.

// farmTimeout bounds one Submit+Wait; a job that takes longer fails.
const farmTimeout = 2 * time.Minute

// farmJob is one entry of a client's job list.
type farmJob struct {
	d      design
	spec   jobs.Spec // unsalted; a pass prefixes a comment to the source
	repeat bool      // the spec of a job this client completed earlier
}

// farmLists deals the pass's fixed job list: every client gets each pool
// design once (own fixed placement seed, seeded tenant), and the repeat of
// pool design k goes to client k mod nproc, at a random position after
// that client's original, so a third of all submissions repeat the spec of
// an already-completed job. Dealing repeats by pool index gives every seed
// the same per-client mix of designs and the same QoR; the seed permutes
// the order.
func farmLists(seed int64, tiny bool, placeEffort float64) [][]farmJob {
	rng := rand.New(rand.NewSource(seed))
	pool := farmDesigns(tiny)
	tenants := []string{"acme", "globex", "initech"}
	lists := make([][]farmJob, cpus())
	for c := range lists {
		for _, k := range rng.Perm(len(pool)) {
			d := pool[k]
			lists[c] = append(lists[c], farmJob{d: d, spec: jobs.Spec{
				Tenant: tenants[rng.Intn(len(tenants))], Name: d.name, Source: d.source,
				Options: jobs.FlowOptions{Seed: placeSeed(slot(c*len(pool) + k)), PlaceEffort: placeEffort}}})
		}
	}
	for k := range pool {
		c := k % len(lists)
		orig := 0
		for lists[c][orig].repeat || lists[c][orig].d.name != pool[k].name {
			orig++
		}
		at := orig + 1 + rng.Intn(len(lists[c])-orig)
		job := lists[c][orig]
		job.repeat = true
		lists[c] = append(lists[c][:at], append([]farmJob{job}, lists[c][at:]...)...)
	}
	return lists
}

// salted is the spec as submitted in pass k: a leading VHDL comment makes
// every pass's jobs new to the service without changing what they compile.
func salted(s jobs.Spec, pass int) jobs.Spec {
	s.Source = fmt.Sprintf("-- pass %d\n%s", pass, s.Source)
	return s
}

// hook times the jobs/flow boundary through jobs.Config.Runner. It runs
// exactly what the service's default runner runs: the same options
// mapping and the same core.Run*Context call under the job's own trace.
type hook struct {
	mu   sync.Mutex
	runs map[string][2]time.Time // fingerprint -> runner start, end
}

func (h *hook) run(ctx context.Context, spec jobs.Spec) (*core.Result, error) {
	start := time.Now()
	o := core.Options{
		Seed:              spec.Options.Seed,
		PlaceEffort:       spec.Options.PlaceEffort,
		MinChannelWidth:   spec.Options.MinChannelWidth,
		TimingDrivenPlace: spec.Options.TimingDrivenPlace,
		TimingDrivenRoute: spec.Options.TimingDrivenRoute,
		SkipVerify:        spec.Options.SkipVerify,
		Retry:             core.DefaultRetryPolicy(),
		Obs:               obs.TraceFromContext(ctx),
	}
	if spec.Options.Retries > 0 {
		o.Retry.MaxAttempts = spec.Options.Retries
	}
	var res *core.Result
	var err error
	if spec.IsBLIF() {
		res, err = core.RunBLIFContext(ctx, spec.Source, o)
	} else {
		res, err = core.RunVHDLContext(ctx, spec.Source, o)
	}
	end := time.Now()
	h.mu.Lock()
	h.runs[spec.Fingerprint()] = [2]time.Time{start, end}
	h.mu.Unlock()
	return res, err
}

// farm is one job service on its own state directory.
type farm struct {
	svc  *jobs.Service
	dir  string
	hook *hook
}

// openFarm opens a service on an empty state directory; traced services
// run jobs through the timing hook.
func (b *bench) openFarm(traced bool) (*farm, error) {
	dir, err := os.MkdirTemp(b.opt.workdir, "farm-")
	if err != nil {
		return nil, err
	}
	f := &farm{dir: dir}
	cfg := jobs.Config{Dir: dir, Workers: cpus()}
	if traced {
		f.hook = &hook{runs: map[string][2]time.Time{}}
		cfg.Runner = f.hook.run
	}
	if f.svc, err = jobs.Open(cfg); err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	return f, nil
}

// close drains the service and deletes its state.
func (f *farm) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), farmTimeout)
	defer cancel()
	err := f.svc.Close(ctx)
	if rerr := os.RemoveAll(f.dir); err == nil {
		err = rerr
	}
	return err
}

// sample is one job as its client saw it.
type sample struct {
	job                       farmJob
	st                        jobs.Status
	err                       error
	submitted, returned, done time.Time
	runStart, runEnd          time.Time // traced services only
}

func (s sample) latency() float64 { return s.done.Sub(s.submitted).Seconds() }

// submit runs one job to a terminal state.
func (f *farm) submit(spec jobs.Spec, j farmJob) sample {
	ctx, cancel := context.WithTimeout(context.Background(), farmTimeout)
	defer cancel()
	s := sample{job: j, submitted: time.Now()}
	s.st, s.err = f.svc.Submit(ctx, spec)
	s.returned = time.Now()
	if s.err == nil {
		s.st, s.err = f.svc.Wait(ctx, s.st.ID)
	}
	s.done = time.Now()
	if s.err == nil && s.st.State != jobs.StateSucceeded {
		s.err = fmt.Errorf("job %s %s: %s", s.st.ID, s.st.State, s.st.Error)
	}
	if s.err == nil && (s.st.Metrics == nil || !s.st.Metrics.Verified || s.st.Artifact == "") {
		s.err = errors.New("job succeeded without a verified bitstream")
	}
	if f.hook != nil {
		f.hook.mu.Lock()
		run := f.hook.runs[spec.Fingerprint()]
		f.hook.mu.Unlock()
		s.runStart, s.runEnd = run[0], run[1]
	}
	return s
}

// farmPass is one pass of the closed loop over the fixed job list.
type farmPass struct {
	r       reading
	samples [][]sample // per client, in list order
}

// pass runs every client's list once, concurrently, and waits for all.
func (f *farm) pass(lists [][]farmJob, k int) farmPass {
	p := farmPass{samples: make([][]sample, len(lists))}
	m := startMeter()
	var wg sync.WaitGroup
	for c := range lists {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, j := range lists[c] {
				p.samples[c] = append(p.samples[c], f.submit(salted(j.spec, k), j))
			}
		}()
	}
	wg.Wait()
	p.r = m.stop()
	return p
}

// each visits every sample of a pass in client, list order.
func (p farmPass) each(fn func(s sample)) {
	for _, cs := range p.samples {
		for _, s := range cs {
			fn(s)
		}
	}
}

// setupFarm generates the job lists, opens a service on an empty state
// directory and runs one warm-up job; it returns the open service and the
// set-up time. The warm-up compiles the pool's largest design (the last in
// farmDesigns) with a fixed seed, so set-up work does not depend on
// --seed and is not mostly fsync latency.
func (b *bench) setupFarm() ([][]farmJob, *farm, float64, error) {
	t := time.Now()
	lists := farmLists(b.opt.seed, b.opt.tiny, b.opt.placeEffort)
	pool := farmDesigns(b.opt.tiny)
	d := pool[len(pool)-1]
	warm := farmJob{d: d, spec: jobs.Spec{Tenant: "warmup", Name: d.name, Source: d.source,
		Options: jobs.FlowOptions{Seed: 1, PlaceEffort: b.opt.placeEffort}}}
	f, err := b.openFarm(false)
	if err != nil {
		return nil, nil, 0, err
	}
	if s := f.submit(salted(warm.spec, -1), warm); s.err != nil {
		f.close()
		return nil, nil, 0, fmt.Errorf("warm-up job %s: %w", warm.d.name, s.err)
	}
	return lists, f, time.Since(t).Seconds(), nil
}

// runFarm runs the farm workload, untraced or traced.
func (b *bench) runFarm() (err error) {
	lists, f, setup, err := b.setupFarm()
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.close(); err == nil {
			err = cerr
		}
	}()
	if err := b.reportSetup(setup); err != nil {
		return err
	}
	n := 0
	for _, l := range lists {
		n += len(l)
	}
	b.note("farm: %d clients, %d workers, %d jobs per pass", len(lists), cpus(), n)
	if b.opt.trace {
		return b.tracedFarm(lists, f)
	}
	var passes []farmPass
	samples := 0
	start := time.Now()
	for last := 0.0; samples < minSamples || b.more(len(passes), time.Since(start).Seconds(), last); {
		p := f.pass(lists, len(passes))
		passes = append(passes, p)
		samples += n
		last = p.r.wall
	}
	sums := b.checkFarm(f, passes)

	var wall, cpu, alloc, lat []float64
	for _, p := range passes {
		wall = append(wall, p.r.wall)
		cpu = append(cpu, p.r.cpu)
		alloc = append(alloc, p.r.allocMB)
		p.each(func(s sample) {
			if s.err == nil {
				lat = append(lat, s.latency())
			}
		})
	}
	b.summarize("compile_s", "s", wall)
	b.summarize("cpu_s", "s", cpu)
	b.summarize("alloc_mb", "MiB", alloc)
	b.setLatency(lat)
	b.setQoR(sums[0])
	return nil
}

// checkFarm counts every job, checks that repeats and later passes return
// the digests of the originals and the same QoR sums, and runs the oracle
// on the first pass's combinational bitstreams. It returns each pass's
// QoR sums.
func (b *bench) checkFarm(f *farm, passes []farmPass) []qor {
	sums := make([]qor, len(passes))
	for k, p := range passes {
		byFP := map[string]string{}
		p.each(func(s sample) {
			if !b.t.op(s.err, "farm job "+s.job.d.name) {
				return
			}
			q, err := f.jobQoR(s.st)
			if !b.t.op(err, "farm job QoR "+s.job.d.name) {
				return
			}
			sums[k].add(q)
			if s.job.repeat {
				b.t.check(byFP[s.st.Fingerprint] == s.st.Artifact, "repeat of %s returns the original's digest", s.job.d.name)
			}
			byFP[s.st.Fingerprint] = s.st.Artifact
		})
	}
	for k, p := range passes[1:] {
		b.t.check(sums[k+1] == sums[0], "farm pass %d QoR sums equal pass 1's", k+2)
		b.t.check(sameDigests(p, passes[0]), "farm pass %d digests equal pass 1's", k+2)
	}
	passes[0].each(func(s sample) {
		if s.err != nil || s.job.repeat || s.job.d.ref == nil {
			return
		}
		enc, err := f.artifact(s.st.ID, "design.bit")
		if err == nil {
			err = b.oracle(s.job.d, enc)
		}
		b.t.op(err, "oracle farm "+s.job.d.name)
	})
	return sums
}

// sameDigests reports whether two passes returned the same artifacts job
// for job.
func sameDigests(a, b farmPass) bool {
	for c := range a.samples {
		for i := range a.samples[c] {
			if a.samples[c][i].st.Artifact != b.samples[c][i].st.Artifact {
				return false
			}
		}
	}
	return true
}

// jobQoR is a succeeded job's QoR: the status metrics, plus the energy per
// cycle from its trace artifact (the power.energy_pj gauge the flow sets),
// which jobs.Result does not carry.
func (f *farm) jobQoR(st jobs.Status) (qor, error) {
	m := st.Metrics
	q := qor{luts: m.LUTs, width: m.ChannelWidth, wirelength: m.Wirelength, critNS: m.CriticalPath}
	data, err := f.artifact(st.ID, "trace.json")
	if err != nil {
		return q, err
	}
	sum, err := obs.ParseSummary(data)
	if err != nil {
		return q, err
	}
	e, ok := sum.Gauges["power.energy_pj"]
	if !ok {
		return q, errors.New("trace.json has no power.energy_pj gauge")
	}
	q.energyPJ = e
	return q, nil
}

// jobsPass submits each design once, one at a time, to a traced service
// and reports the jobs/flow boundary medians (compile workloads). Each
// job's bitstream must match the untraced compile's.
func (b *bench) jobsPass(ds []design, minW bool, want []compiled) error {
	f, err := b.openFarm(true)
	if err != nil {
		return err
	}
	var ss []sample
	for i, d := range ds {
		spec := jobs.Spec{Tenant: "bench", Name: d.name, Source: d.source,
			Options: jobs.FlowOptions{Seed: d.seed, PlaceEffort: b.opt.placeEffort, MinChannelWidth: minW}}
		s := f.submit(spec, farmJob{d: d})
		if b.t.op(s.err, "job "+d.name) {
			b.t.check(s.st.Artifact == digest(want[i].encoded), "job %s digest equals fpgaflow.Run's", d.name)
			ss = append(ss, s)
		}
	}
	b.setJobLayers(ss)
	return f.close()
}

// setJobLayers reports the per-job medians of the jobs/flow boundary.
func (b *bench) setJobLayers(ss []sample) {
	var submit, queue, run, commit []float64
	for _, s := range ss {
		submit = append(submit, s.returned.Sub(s.submitted).Seconds())
		queue = append(queue, s.runStart.Sub(s.returned).Seconds())
		run = append(run, s.runEnd.Sub(s.runStart).Seconds())
		commit = append(commit, s.done.Sub(s.runEnd).Seconds())
	}
	b.set("jobs.submit_s", median(submit), "s")
	b.set("jobs.queue_wait_s", median(queue), "s")
	b.set("jobs.run_s", median(run), "s")
	b.set("jobs.commit_s", median(commit), "s")
	b.note("jobs: submit %.6g s  queue wait %.6g s  run %.6g s  commit %.6g s  (medians of %d jobs)",
		median(submit), median(queue), median(run), median(commit), len(ss))
}

// tracedFarm is the --trace 1 run of the farm: untraced and hook-timed
// passes alternate on two services, and the first round adds the layer
// chain and the program's own stage timing over the pass's job list.
func (b *bench) tracedFarm(lists [][]farmJob, f *farm) error {
	tf, err := b.openFarm(true)
	if err != nil {
		return err
	}
	defer tf.close()
	var flat []farmJob
	for _, l := range lists {
		flat = append(flat, l...)
	}
	srcs, names := make([]string, len(flat)), make([]string, len(flat))
	opts := make([]fpgaflow.Options, len(flat))
	for i, j := range flat {
		srcs[i], names[i] = j.spec.Source, j.d.name
		opts[i] = fpgaflow.Options{Seed: j.spec.Options.Seed, PlaceEffort: j.spec.Options.PlaceEffort,
			Retry: core.DefaultRetryPolicy()}
	}
	var untraced, traced []float64
	var chains []*chain
	var ss []sample
	start := time.Now()
	for round, last := 0, 0.0; round == 0 || time.Since(start).Seconds()+last <= b.opt.seconds; round++ {
		t := time.Now()
		up := f.pass(lists, 2*round)
		tp := tf.pass(lists, 2*round+1)
		untraced, traced = append(untraced, up.r.wall), append(traced, tp.r.wall)
		b.t.check(sameDigests(up, tp), "traced farm digests equal untraced ones")
		for _, p := range []farmPass{up, tp} {
			p.each(func(s sample) { b.t.op(s.err, "farm job "+s.job.d.name) })
		}
		tp.each(func(s sample) {
			if s.err == nil {
				ss = append(ss, s)
			}
		})
		last = time.Since(t).Seconds()
		if round == 0 {
			c, _ := b.chainPass(srcs, opts, b.farmOutputs(f, up), names)
			chains = append(chains, c)
			b.printShares(c.stages, b.stageSeconds(srcs, opts, names))
		}
	}
	b.setLayers(chains)
	b.setJobLayers(ss)
	b.set("trace.overhead_frac", median(traced)/median(untraced)-1, "frac")
	b.note("trace.overhead_frac: traced %v s vs untraced %v s", traced, untraced)
	return nil
}

// farmOutputs reads back what a pass's jobs produced, in list order: QoR
// from the job status and trace, bitstream bytes from the artifact.
func (b *bench) farmOutputs(f *farm, p farmPass) []compiled {
	var out []compiled
	p.each(func(s sample) {
		var c compiled
		if s.err == nil {
			// A read error leaves c empty, which fails the chain's check.
			c.q, _ = f.jobQoR(s.st)
			c.encoded, _ = f.artifact(s.st.ID, "design.bit")
		}
		out = append(out, c)
	})
	return out
}

// artifact reads one of a job's artifact files.
func (f *farm) artifact(id, name string) ([]byte, error) {
	path, err := f.svc.ArtifactPath(id, name)
	if err != nil {
		return nil, err
	}
	return os.ReadFile(path)
}
