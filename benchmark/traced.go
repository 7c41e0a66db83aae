package main

import (
	"fmt"
	"runtime/debug"
	"strings"
	"time"

	"ptatin3d/internal/fem"
	"ptatin3d/internal/la"
	"ptatin3d/internal/mg"
	"ptatin3d/internal/model"
	"ptatin3d/internal/mpm"
	"ptatin3d/internal/op"
	"ptatin3d/internal/perfmodel"
	"ptatin3d/internal/stokes"
)

// probeReps is how often each probe is repeated; its median is reported.
const probeReps = 5

// layerMetrics lists the per-layer metrics of a traced run, in report
// order, with their units.
var layerMetrics = []struct{ Name, Unit string }{
	{"model.step_s", "s"},
	{"model.non_solve_s", "s"},
	{"model.coefficients_s", "s"},
	{"model.trace_overhead_frac", "ratio"},
	{"nonlinear.solves_per_step", "count"},
	{"nonlinear.unconverged_steps", "count"},
	{"krylov.solve_s", "s"},
	{"krylov.its_per_step", "count"},
	{"krylov.op_apply_s", "s"},
	{"krylov.op_applies", "count"},
	{"krylov.pc_apply_s", "s"},
	{"krylov.pc_applies", "count"},
	{"krylov.ortho_s", "s"},
	{"stokes.setup_cold_s", "s"},
	{"stokes.refresh_s", "s"},
	{"stokes.refresh_geom_s", "s"},
	{"stokes.fieldsplit_apply_s", "s"},
	{"mg.vcycle_s", "s"},
	{"mg.l0.smooth_s", "s"},
	{"mg.l0.residual_s", "s"},
	{"mg.l0.restrict_s", "s"},
	{"mg.l0.prolong_s", "s"},
	{"mg.l1.smooth_s", "s"},
	{"mg.l1.residual_s", "s"},
	{"mg.l1.restrict_s", "s"},
	{"mg.l1.prolong_s", "s"},
	{"mg.coarse_s", "s"},
	{"op.l0.gflops", "GF/s"},
	{"op.l0.gbs", "GB/s"},
	{"op.l0.roofline_frac", "ratio"},
	{"op.storage_mb", "MB"},
	{"par.l0_speedup", "x"},
	{"perfmodel.stream_gbs", "GB/s"},
	{"perfmodel.flops_gflops", "GF/s"},
	{"mpm.project_s", "s"},
	{"mpm.advect_s", "s"},
	{"mpm.locate_s", "s"},
	{"thermal.step_s", "s"},
	{"comm.halo_msgs_per_it", "msgs/it"},
	{"comm.halo_bytes_per_it", "B/it"},
	{"comm.allreduces_per_it", "1/it"},
	{"comm.retries", "count"},
}

// runTraced runs one untraced and one traced episode of the same spec,
// asserts that both end in the same state bit for bit, then probes each
// layer's entry points on the traced run's final solver and state. Its
// work is fixed; the seconds argument is only recorded.
func runTraced(w workload, seed int64, seconds float64) (*Record, error) {
	rec, spec, ref, err := newRecord(w, seed, seconds, true)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	vals := map[string]float64{}

	// Machine context first, while the heap is small: triad arrays
	// totalling at least 4× the last-level cache, so the stream figure is
	// memory and not cache bandwidth.
	llc := llcBytes()
	n := max(1<<22, int(4*llc/24)+1)
	vals["perfmodel.stream_gbs"] = perfmodel.MeasureStream(n, 3) / 1e9
	vals["perfmodel.flops_gflops"] = perfmodel.MeasureFlops(1<<22, 3) / 1e9
	debug.FreeOSMemory()

	m, c, err := setup(w, spec)
	if err != nil {
		return nil, err
	}
	rec.SetupS = append(rec.SetupS, c)
	rec.Provenance = provenance(w, seed, spec, m)
	plain := runEpisode(rec, m, w.TraceSteps, ref, nil)
	rec.Episodes = append(rec.Episodes, plain)

	m = nil
	if m, c, err = setup(w, spec); err != nil {
		return nil, err
	}
	rec.SetupS = append(rec.SetupS, c)
	tb := newTracedBackend(m.Backend, tr)
	m.Backend = tb
	var stepIDs []int
	traced := runEpisode(rec, m, w.TraceSteps, ref, func(step func()) {
		id := tr.begin("model.step")
		step()
		tr.end(id)
		stepIDs = append(stepIDs, id)
	})
	rec.Episodes = append(rec.Episodes, traced)
	if len(traced.Steps) < w.TraceSteps || len(plain.Steps) < w.TraceSteps {
		rec.finish()
		return rec, nil
	}
	if traced.Digest != plain.Digest {
		rec.failf("traced run ended in state %s, untraced in %s: tracing changed the result", traced.Digest, plain.Digest)
	}

	loopMetrics(vals, tr, tb, plain, traced, stepIDs)
	if err := probe(vals, tr, m); err != nil {
		return nil, err
	}
	rec.Spans = tr.spans
	rec.Metrics = map[string]Metric{}
	for _, lm := range layerMetrics {
		rec.Metrics[lm.Name] = Metric{vals[lm.Name], lm.Unit}
	}
	for _, msg := range deadInstruments(w, m.T != nil, vals) {
		rec.failf("%s", msg)
	}
	rec.finish()
	return rec, nil
}

// loopMetrics derives the in-loop metrics from the spans of the timed
// steps (every traced step after the first).
func loopMetrics(vals map[string]float64, tr *tracer, tb *tracedBackend, plain, traced Episode, stepIDs []int) {
	var step, nonSolve, solves, solveS, its, opS, opN, pcS, pcN, ortho []float64
	solveIdx := 0
	for k, id := range stepIDs {
		ss := tr.within(id, "krylov.solve")
		stepIts := 0
		for range ss {
			stepIts += tb.solves[solveIdx].Iterations
			solveIdx++
		}
		if k == 0 {
			continue
		}
		st := tr.spans[id].Dur().Seconds()
		sv := spanSum(ss)
		ops, pcs := tr.within(id, "krylov.op_apply"), tr.within(id, "krylov.pc_apply")
		step = append(step, st)
		nonSolve = append(nonSolve, st-sv)
		solves = append(solves, float64(len(ss)))
		solveS = append(solveS, sv)
		its = append(its, float64(stepIts))
		opS = append(opS, spanSum(ops))
		opN = append(opN, float64(len(ops)))
		pcS = append(pcS, spanSum(pcs))
		pcN = append(pcN, float64(len(pcs)))
		if len(ops) > 0 {
			ortho = append(ortho, sv-spanSum(ops)-spanSum(pcs))
		}
	}
	vals["model.step_s"] = mean(step)
	vals["model.non_solve_s"] = mean(nonSolve)
	// Overhead in CPU time of the same steps, which is steadier than
	// wall time on a shared host.
	var cpuPlain, cpuTraced []float64
	for k := 1; k < len(plain.Steps); k++ {
		cpuPlain = append(cpuPlain, plain.Steps[k].CPUS)
		cpuTraced = append(cpuTraced, traced.Steps[k].CPUS)
	}
	vals["model.trace_overhead_frac"] = sum(cpuTraced)/sum(cpuPlain) - 1
	vals["nonlinear.solves_per_step"] = mean(solves)
	for _, s := range traced.Steps {
		if !s.Converged {
			vals["nonlinear.unconverged_steps"]++
		}
	}
	vals["krylov.solve_s"] = mean(solveS)
	vals["krylov.its_per_step"] = mean(its)
	vals["krylov.op_apply_s"] = mean(opS)
	vals["krylov.op_applies"] = mean(opN)
	vals["krylov.pc_apply_s"] = mean(pcS)
	vals["krylov.pc_applies"] = mean(pcN)
	vals["krylov.ortho_s"] = mean(ortho)

	totalIts := 0
	for _, r := range tb.solves {
		totalIts += r.Iterations
	}
	if totalIts > 0 {
		vals["comm.halo_msgs_per_it"] = float64(tb.comm.HaloMsgs) / float64(totalIts)
		vals["comm.halo_bytes_per_it"] = float64(tb.comm.HaloBytes) / float64(totalIts)
		vals["comm.allreduces_per_it"] = float64(tb.comm.AllReduces) / float64(totalIts)
		vals["comm.retries"] = float64(tb.comm.Retries)
	}
}

func spanSum(ss []Span) float64 {
	t := 0.0
	for _, s := range ss {
		t += s.Dur().Seconds()
	}
	return t
}

// probe times the public entry points of each layer on the final model
// and its last solver, probeReps times each, and stores the medians.
// It runs after the trace-identity check: several probes change cached
// solver or coefficient state.
func probe(vals map[string]float64, tr *tracer, m *model.Model) error {
	s := m.LastStokes
	if s == nil {
		return fmt.Errorf("probe: the run built no Stokes solver")
	}
	prob := m.Prob
	nu := prob.DA.NVelDOF()
	u := m.X[:nu]
	dt := m.Stats[len(m.Stats)-1].Dt
	rep := func(name string, fn func()) {
		for i := 0; i < probeReps; i++ {
			tr.do(name, fn)
		}
		vals[name+"_s"] = median(durations(tr.named(name)))
	}
	var perr error
	keep := func(err error) {
		if err != nil && perr == nil {
			perr = err
		}
	}

	rep("model.coefficients", func() { m.UpdateCoefficients(m.X, false) })

	cfg := m.Cfg
	cfg.Workers = m.Workers
	cfg.VerticalAxis = m.VerticalAxis
	cfg.CoeffCoarsen = m.CoeffCoarsener()
	rep("stokes.setup_cold", func() { _, err := stokes.New(prob, cfg); keep(err) })
	rep("stokes.refresh", func() { keep(s.Refresh(false)) })
	rep("stokes.refresh_geom", func() { keep(s.Refresh(true)) })
	if perr != nil {
		return fmt.Errorf("probe: %w", perr)
	}

	// A realistic right-hand side: the nonlinear residual of the final
	// state.
	bu := la.NewVec(nu)
	fem.MomentumRHS(prob, bu)
	f := la.NewVec(s.Op.N())
	s.Op.Residual(m.X, bu, f)
	z := la.NewVec(s.Op.N())
	rep("stokes.fieldsplit_apply", func() { s.FS.Apply(f, z) })

	if g := s.MG; g != nil {
		b := append(la.Vec(nil), f[:nu]...)
		x := la.NewVec(nu)
		rep("mg.vcycle", func() { x.Zero(); g.VCycle(b, x) })
		for l := 0; l+1 < len(g.Levels); l++ {
			lev, next := g.Levels[l], g.Levels[l+1]
			x, r := la.NewVec(len(b)), la.NewVec(len(b))
			bc, ec := la.NewVec(next.Op.N()), la.NewVec(len(b))
			pre := fmt.Sprintf("mg.l%d.", l)
			rep(pre+"smooth", func() {
				x.Zero()
				if lev.Blocked != nil {
					lev.Blocked.Smooth(b, x, true)
				} else {
					lev.Smoother.Smooth(b, x, true)
				}
			})
			rep(pre+"residual", func() { lev.Op.Apply(x, r) })
			rep(pre+"restrict", func() { next.P.ApplyTranspose(r, bc) })
			rep(pre+"prolong", func() { next.P.Apply(bc, ec) })
			b = bc
		}
		if g.CoarseSolve != nil {
			x := la.NewVec(len(b))
			rep("mg.coarse", func() { g.CoarseSolve.Apply(b, x) })
		}
		keep(kernelMetrics(vals, tr, g, s))
	}

	pts := m.Points
	rep("mpm.project", func() {
		mpm.NewProjector(prob).Project(pts, func(i int) float64 { return pts.Plastic[i] + float64(pts.Litho[i]) }, nil)
	})
	rep("mpm.advect", func() { mpm.AdvectRK2(prob, u, dt, copyPoints(pts), m.Workers) })
	rep("mpm.locate", func() { mpm.LocateAll(prob, copyPoints(pts)) })
	if m.T != nil && m.Temp != nil {
		rep("thermal.step", func() { keep(m.T.Step(append([]float64(nil), m.Temp...), u, dt)) })
	}
	if perr != nil {
		return fmt.Errorf("probe: %w", perr)
	}
	return nil
}

// kernelMetrics reports the level-0 operator's computed flop and byte
// rates at its measured apply time, its roofline fraction on the
// machine measured in this run (scalar flop rate × workers, single-stream
// triad bandwidth), the operator storage of the whole hierarchy, and the
// speed-up of the level-0 apply over a Workers=1 build of the same
// operator on the same problem.
func kernelMetrics(vals map[string]float64, tr *tracer, g *mg.MG, s *stokes.Solver) error {
	lev0 := g.Levels[0]
	tN := vals["mg.l0.residual_s"]
	c := lev0.Op.Cost()
	vals["op.l0.gflops"] = c.ApplyFlops / tN / 1e9
	vals["op.l0.gbs"] = c.ApplyBytes / tN / 1e9
	mach := perfmodel.Machine{
		StreamBW: vals["perfmodel.stream_gbs"] * 1e9,
		FlopRate: vals["perfmodel.flops_gflops"] * 1e9 * float64(s.Cfg.Workers),
	}
	roof := mach.RooflineTime(perfmodel.OpCounts{Flops: c.ApplyFlops, BytesPerfect: c.ApplyBytes, BytesPessimal: c.ApplyBytes}, false)
	vals["op.l0.roofline_frac"] = roof / tN

	storage := 0.0
	for _, lev := range g.Levels {
		storage += lev.Op.Cost().StorageBytes
	}
	if auu, ok := s.Op.Auu.(op.Operator); ok && any(auu) != any(lev0.Op) {
		storage += auu.Cost().StorageBytes
	}
	vals["op.storage_mb"] = storage / 1e6

	p := lev0.Prob
	workers := p.Workers
	p.Workers = 1
	defer func() { p.Workers = workers }()
	o1, err := op.New(s.Cfg.FineKind, op.Env{Prob: p, Workers: 1, Level: 0, Levels: len(g.Levels)})
	if err != nil {
		return err
	}
	if err := o1.Setup(); err != nil {
		return err
	}
	x, y := la.NewVec(o1.N()), la.NewVec(o1.N())
	for i := 0; i < probeReps; i++ {
		tr.do("par.l0_apply_workers1", func() { o1.Apply(x, y) })
	}
	vals["par.l0_speedup"] = median(durations(tr.named("par.l0_apply_workers1"))) / tN
	return nil
}

func durations(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// copyPoints returns a deep copy, so probes that move points leave the
// model's population untouched.
func copyPoints(p *mpm.Points) *mpm.Points {
	return &mpm.Points{
		X: clone(p.X), Y: clone(p.Y), Z: clone(p.Z),
		Litho: clone(p.Litho), Plastic: clone(p.Plastic),
		Elem: clone(p.Elem), Xi: clone(p.Xi), Et: clone(p.Et), Ze: clone(p.Ze),
	}
}

func clone[T any](s []T) []T { return append([]T(nil), s...) }

// deadInstruments lists the per-layer metrics that contradict what the
// workload exercises: a layer it runs that recorded nothing, or one it
// must not run that recorded something.
func deadInstruments(w workload, thermal bool, vals map[string]float64) []string {
	var out []string
	want := func(exercised bool) string {
		if exercised {
			return "nonzero"
		}
		return "zero"
	}
	for _, lm := range layerMetrics {
		v := vals[lm.Name]
		var expect string // "", "zero" or "nonzero"
		switch {
		case lm.Name == "model.trace_overhead_frac", lm.Name == "nonlinear.unconverged_steps",
			lm.Name == "comm.retries":
			// Signed, or counts of events a healthy run may or may not see.
		case strings.HasPrefix(lm.Name, "comm."):
			expect = want(w.Distributed())
		case strings.HasPrefix(lm.Name, "krylov.op_"), strings.HasPrefix(lm.Name, "krylov.pc_"),
			lm.Name == "krylov.ortho_s":
			// The distributed backend solves with its own halo operator,
			// never with the pair it is handed.
			expect = want(!w.Distributed())
		case lm.Name == "thermal.step_s":
			expect = want(thermal)
		default:
			expect = "nonzero"
		}
		if expect == "nonzero" && !(v > 0) {
			out = append(out, fmt.Sprintf("dead instrument: %s = %v on %s, which exercises it", lm.Name, v, w.Name))
		}
		if expect == "zero" && v != 0 {
			out = append(out, fmt.Sprintf("stray instrument: %s = %v on %s, which does not exercise it", lm.Name, v, w.Name))
		}
	}
	return out
}
