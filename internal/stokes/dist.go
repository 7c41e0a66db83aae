package stokes

import (
	"fmt"
	"sync"

	"ptatin3d/internal/comm"
	"ptatin3d/internal/fem"
	"ptatin3d/internal/krylov"
	"ptatin3d/internal/la"
	"ptatin3d/internal/mg"
	"ptatin3d/internal/op"
	"ptatin3d/internal/telemetry"
)

// Rank-distributed coupled Stokes solve (paper §II-D): the whole outer
// Krylov iteration — coupled matvec, field-split preconditioner with a
// distributed multigrid V-cycle on the viscous block, and all inner
// products — runs collectively across the ranks of a simulated MPI
// world. Each rank iterates on its own full-length vector copy, valid
// on the owned+ghost entries of its per-level layout; every halo
// exchange goes over the reliable channel protocol with interior
// compute overlapped with in-flight boundary traffic; every reduction
// is a deterministic rank-ordered AllReduce, so all ranks follow the
// identical iteration trajectory.
//
// Velocity nodes follow the comm.Layout ownership boxes. P1disc
// pressure dofs are element-local (4 per element at indices [4e,4e+4)),
// so pressure needs no halo at all: a rank fully owns the pressure rows
// of its elements.

// RankStats reports one rank's communication volume for a distributed
// solve — the per-rank columns behind the Tables II/III scaling runs.
// The Fabric*Ns columns are modeled interconnect nanoseconds (zero
// unless a fabric model is installed): halo packets, allreduce hops and
// coarse-solve funneling priced by the α–β model of perfmodel.Fabric.
type RankStats struct {
	Rank              int   `json:"rank"`
	HaloMsgs          int64 `json:"halo_msgs"`
	HaloBytes         int64 `json:"halo_bytes"`
	AllReduces        int64 `json:"allreduces"`
	Retries           int64 `json:"retries"`
	FabricHaloNs      int64 `json:"fabric_halo_ns,omitempty"`
	FabricAllReduceNs int64 `json:"fabric_allreduce_ns,omitempty"`
	FabricCoarseNs    int64 `json:"fabric_coarse_ns,omitempty"`
}

// DistOptions tunes SolveDistributedOpt beyond the plain
// SolveDistributed defaults.
type DistOptions struct {
	// Pipelined selects the single-reduce Krylov variants: one fused
	// allreduce per outer iteration instead of one per inner product.
	Pipelined bool
	// CoarseRoots > 0 agglomerates the coarsest-level solve onto that
	// many block roots (comm.Agg); 0 keeps the all-to-rank-0 gather.
	CoarseRoots int
	// Fabric, when non-nil, prices every interconnect operation of the
	// solve in modeled nanoseconds (RankStats.Fabric*Ns).
	Fabric comm.FabricModel
	// Policy overrides the world retry policy when non-zero — high rank
	// counts on few host cores need more generous timeouts.
	Policy comm.RetryPolicy
}

// errSink records the first asynchronous failure of a rank's solve
// (exchange errors cannot surface through krylov.Op.Apply).
type errSink struct{ err error }

func (s *errSink) note(err error) {
	if s.err == nil && err != nil {
		s.err = err
	}
}

// elementApplier accumulates the viscous-block action of an element
// subset (fem.TensorOp, fem.Resident).
type elementApplier interface {
	ApplyElements(elems []int, u, y la.Vec)
}

// distOp is one rank's view of the coupled operator J = [[A,G],[D,0]].
// The viscous block is applied matrix-free over the rank's elements
// with boundary elements first, so their nodal partial sums are in
// flight while interior elements — and the entirely element-local G and
// D blocks — are computed (§II-D latency hiding).
type distOp struct {
	op    *Op
	kern  elementApplier
	dist  *comm.Dist
	sink  *errSink
	spans []la.Span // coupled owned+ghost windows; nil = full-length ops
}

// N returns the coupled dimension.
func (o *distOp) N() int { return o.op.N() }

// Apply computes y = J·x, valid on this rank's owned+ghost velocity
// rows and owned pressure rows.
func (o *distOp) Apply(x, y la.Vec) {
	l := o.dist.L
	xu, xp := o.op.Split(x)
	yu, yp := o.op.Split(y)
	if o.spans != nil {
		y.ZeroSpans(o.spans)
	} else {
		y.Zero()
	}
	o.kern.ApplyElements(l.Boundary, xu, yu)
	o.op.C.ApplyGAddElements(l.Boundary, xp, yu)
	err := o.dist.ReduceBroadcast(yu,
		func() {
			o.kern.ApplyElements(l.Interior, xu, yu)
			o.op.C.ApplyGAddElements(l.Interior, xp, yu)
			o.op.C.ApplyDElements(l.Elems, xu, yp)
		},
		func() { o.identityOwnedRows(xu, yu) })
	o.sink.note(err)
}

// identityOwnedRows applies the Dirichlet identity on the constrained
// velocity rows of the owned node box.
func (o *distOp) identityOwnedRows(xu, yu la.Vec) {
	l := o.dist.L
	mask := o.op.P.BC.Mask
	b := l.Owned
	da := l.D.DA
	for k := b.Lo[2]; k < b.Hi[2]; k++ {
		for j := b.Lo[1]; j < b.Hi[1]; j++ {
			row := (k*da.NPy + j) * da.NPx
			for i := b.Lo[0]; i < b.Hi[0]; i++ {
				d := 3 * (row + i)
				for c := 0; c < 3; c++ {
					if mask[d+c] {
						yu[d+c] = xu[d+c]
					}
				}
			}
		}
	}
}

// distFieldSplit is the rank-local block lower-triangular
// preconditioner: a distributed V-cycle on the viscous block, then the
// element-local Schur update on the rank's own pressure rows.
type distFieldSplit struct {
	op     *Op
	dmg    *mg.DistMG
	mp     *fem.PressureMass
	l      *comm.Layout
	tu     la.Vec
	pspans []la.Span // owned pressure windows relative to the pressure part
}

// Apply computes z = P⁻¹·r.
func (fs *distFieldSplit) Apply(r, z la.Vec) {
	ru, rp := fs.op.Split(r)
	zu, zp := fs.op.Split(z)
	fs.dmg.Apply(ru, zu)
	if fs.pspans != nil {
		zp.ZeroSpans(fs.pspans)
	} else {
		zp.Zero()
	}
	fs.op.C.ApplyDElements(fs.l.Elems, zu, fs.tu)
	for _, e := range fs.l.Elems {
		for i := 4 * e; i < 4*e+4; i++ {
			fs.tu[i] = rp[i] - fs.tu[i]
		}
	}
	fs.mp.ApplyInvElements(fs.l.Elems, fs.tu, zp)
	for _, e := range fs.l.Elems {
		for i := 4 * e; i < 4*e+4; i++ {
			zp[i] = -zp[i]
		}
	}
}

// coupledReducer sums each rank's partial inner product — owned
// velocity box plus the pressure rows of its elements — with a single
// deterministic AllReduce, so every rank sees the bit-identical global
// value and the Krylov trajectory stays collective-consistent.
type coupledReducer struct {
	op   *Op
	dist *comm.Dist
}

// Dot returns the globally reduced coupled inner product.
func (rd *coupledReducer) Dot(x, y la.Vec) float64 {
	return rd.dist.AllReduceSum(rd.local(x, y))
}

// DotBatch reduces several coupled inner products with ONE collective
// (krylov.BatchReducer): the fused reduction under the pipelined Krylov
// variants, collapsing an iteration's 2–3 allreduces — or a restart
// cycle's j+2 — into a single latency charge.
func (rd *coupledReducer) DotBatch(xs, ys []la.Vec) []float64 {
	part := make([]float64, len(xs))
	for i := range xs {
		part[i] = rd.local(xs[i], ys[i])
	}
	return rd.dist.AllReduceSumVec(part)
}

// local computes this rank's partial of the coupled inner product.
func (rd *coupledReducer) local(x, y la.Vec) float64 {
	xu, xp := rd.op.Split(x)
	yu, yp := rd.op.Split(y)
	s := rd.dist.L.DotVel(xu, yu)
	for _, e := range rd.dist.L.Elems {
		s += xp.DotRange(yp, 4*e, 4*e+4)
	}
	return s
}

// coupledExchanger makes an externally assembled coupled vector
// halo-consistent: ghost velocity entries are refreshed from their
// owners; pressure is element-local and needs no exchange.
type coupledExchanger struct {
	op   *Op
	dist *comm.Dist
}

// Consistent refreshes the velocity ghost region of x.
func (ex *coupledExchanger) Consistent(x la.Vec) error {
	xu, _ := ex.op.Split(x)
	return ex.dist.Broadcast(xu)
}

// SolveDistributed performs one linear Stokes solve exactly like Solve,
// but rank-distributed over a px×py×pz world. The correction system
// J·δ = −F(x) is solved collectively: each rank runs the configured
// outer method (GCR or FGMRES) on its own vector copy, and the owned
// pieces of the per-rank corrections are assembled into the global
// update. Returns rank 0's Result (all ranks follow the identical
// trajectory) plus the per-rank communication statistics.
//
// Requires a geometric multigrid configuration (Levels >= 2) whose
// per-level decompositions nest: px, py, pz must divide the per-level
// element counts at every level.
func (s *Solver) SolveDistributed(x, bu la.Vec, px, py, pz int) (krylov.Result, []RankStats, error) {
	return s.SolveDistributedOpt(x, bu, px, py, pz, DistOptions{})
}

// coupledSpans returns the owned+ghost windows of a rank's coupled
// vector: the velocity rows of the extended node box followed by the
// pressure rows of the rank's elements (offset by Nu), with adjacent
// windows merged. Every BLAS-1 op of the rank's Krylov iteration runs
// only on these windows, keeping per-rank vector work O(n/P).
func coupledSpans(op *Op, l *comm.Layout) []la.Span {
	spans := append([]la.Span(nil), l.VelSpans()...)
	for _, e := range l.Elems {
		lo, hi := op.Nu+4*e, op.Nu+4*e+4
		if n := len(spans); n > 0 && spans[n-1].Hi == lo {
			spans[n-1].Hi = hi
		} else {
			spans = append(spans, la.Span{Lo: lo, Hi: hi})
		}
	}
	return spans
}

// pressureSpans returns the rank's owned pressure windows relative to
// the pressure part of a coupled vector, merging adjacent elements.
func pressureSpans(l *comm.Layout) []la.Span {
	var spans []la.Span
	for _, e := range l.Elems {
		lo, hi := 4*e, 4*e+4
		if n := len(spans); n > 0 && spans[n-1].Hi == lo {
			spans[n-1].Hi = hi
		} else {
			spans = append(spans, la.Span{Lo: lo, Hi: hi})
		}
	}
	return spans
}

// SolveDistributedOpt is SolveDistributed with latency-tolerance options:
// pipelined single-reduce Krylov, coarse-solve agglomeration onto a rank
// subset, a fabric cost model, and a retry-policy override.
func (s *Solver) SolveDistributedOpt(x, bu la.Vec, px, py, pz int, opt DistOptions) (krylov.Result, []RankStats, error) {
	// Residual-correction form, as in Solve.
	n := s.Op.N()
	f := la.NewVec(n)
	s.Op.Residual(x, bu, f)
	f.Scale(-1)
	delta := la.NewVec(n)
	res, stats, err := s.LinearSolveDistributed(s.Cfg.OuterMethod, f, delta, s.Cfg.Params, px, py, pz, opt)
	if err != nil {
		return res, stats, err
	}
	x.AXPY(1, delta)
	return res, stats, nil
}

// distDecomps builds and validates the nested per-level decompositions
// of the solver's geometric hierarchy for a px×py×pz world, along with
// the [level][rank] layouts. Both are purely topological, so they are
// cached on the solver and reused across solves of the same world shape
// (the per-step cost of a distributed solve then excludes partitioning).
func (s *Solver) distDecomps(px, py, pz int) ([]*comm.Decomp, [][]*comm.Layout, error) {
	if s.MG == nil {
		return nil, nil, fmt.Errorf("stokes: distributed solve requires a geometric multigrid configuration (Levels >= 2)")
	}
	if c := &s.dcache; c.decomps != nil && c.px == px && c.py == py && c.pz == pz {
		return c.decomps, c.layouts, nil
	}
	decomps := make([]*comm.Decomp, len(s.MG.Levels))
	for l, lev := range s.MG.Levels {
		if lev.Prob == nil {
			return nil, nil, fmt.Errorf("stokes: distributed solve requires geometric levels (level %d is algebraic)", l)
		}
		d, err := comm.NewDecomp(lev.Prob.DA, px, py, pz)
		if err != nil {
			return nil, nil, fmt.Errorf("stokes: level %d: %w", l, err)
		}
		decomps[l] = d
	}
	if err := mg.ValidateNestedDecomps(decomps); err != nil {
		return nil, nil, err
	}
	size := px * py * pz
	layouts := make([][]*comm.Layout, len(decomps))
	for l, d := range decomps {
		layouts[l] = make([]*comm.Layout, size)
		for rid := 0; rid < size; rid++ {
			layouts[l][rid] = comm.NewLayout(d, rid)
		}
	}
	s.dcache = distCache{px: px, py: py, pz: pz, decomps: decomps, layouts: layouts}
	return decomps, layouts, nil
}

// rankCommCounters reads the communication counters of one rank's
// telemetry scope into a RankStats record.
func rankCommCounters(sc *telemetry.Scope, rank int) RankStats {
	return RankStats{
		Rank:              rank,
		HaloMsgs:          sc.Counter("halo_msgs").Value(),
		HaloBytes:         sc.Counter("halo_bytes").Value(),
		AllReduces:        sc.Counter("allreduces").Value(),
		Retries:           sc.Counter("retries").Value(),
		FabricHaloNs:      sc.Counter("fabric_halo_ns").Value(),
		FabricAllReduceNs: sc.Counter("fabric_allreduce_ns").Value(),
		FabricCoarseNs:    sc.Counter("fabric_coarse_ns").Value(),
	}
}

// sub returns the counter deltas a−b (Rank preserved from a).
func (a RankStats) sub(b RankStats) RankStats {
	return RankStats{
		Rank:              a.Rank,
		HaloMsgs:          a.HaloMsgs - b.HaloMsgs,
		HaloBytes:         a.HaloBytes - b.HaloBytes,
		AllReduces:        a.AllReduces - b.AllReduces,
		Retries:           a.Retries - b.Retries,
		FabricHaloNs:      a.FabricHaloNs - b.FabricHaloNs,
		FabricAllReduceNs: a.FabricAllReduceNs - b.FabricAllReduceNs,
		FabricCoarseNs:    a.FabricCoarseNs - b.FabricCoarseNs,
	}
}

// Add accumulates the communication volume of o into s (Rank kept).
func (s *RankStats) Add(o RankStats) {
	s.HaloMsgs += o.HaloMsgs
	s.HaloBytes += o.HaloBytes
	s.AllReduces += o.AllReduces
	s.Retries += o.Retries
	s.FabricHaloNs += o.FabricHaloNs
	s.FabricAllReduceNs += o.FabricAllReduceNs
	s.FabricCoarseNs += o.FabricCoarseNs
}

// LinearSolveDistributed solves the coupled linear system J·δ = rhs
// collectively over a px×py×pz world, writing the assembled correction
// into delta (overwritten). The caller supplies the outer method and the
// Krylov parameters — this is the backend entry point the nonlinear time
// loop uses, where RTol carries the per-iteration Eisenstat–Walker
// forcing term. Each rank runs the method on its own windowed vector
// copy; the owned pieces of the per-rank solutions are assembled into
// delta, and rank 0's Result is returned (all ranks follow the identical
// trajectory). RankStats are per-call deltas, so repeated solves against
// the same telemetry registry report each solve's own volume.
//
// Requires a geometric multigrid configuration (Levels >= 2) whose
// per-level decompositions nest: px, py, pz must divide the per-level
// element counts at every level.
func (s *Solver) LinearSolveDistributed(method string, rhs, delta la.Vec, prmIn krylov.Params, px, py, pz int, opt DistOptions) (krylov.Result, []RankStats, error) {
	decomps, layouts, err := s.distDecomps(px, py, pz)
	if err != nil {
		return krylov.Result{}, nil, err
	}
	nl := len(decomps)
	f := rhs
	delta.Zero()

	tel := s.Tel.Child("dist")
	size := px * py * pz
	n := s.Op.N()
	// Snapshot the communication counters up front: the rank scopes are
	// reused across rebuilt solvers sharing one telemetry registry (the
	// time loop rebuilds the preconditioner every nonlinear iteration),
	// so per-solve stats must be computed as before/after deltas.
	before := make([]RankStats, size)
	for rid := 0; rid < size; rid++ {
		before[rid] = rankCommCounters(tel.Child(fmt.Sprintf("rank%d", rid)), rid)
	}
	var agg *comm.Agg
	if opt.CoarseRoots > 0 {
		a, err := comm.NewAgg(size, opt.CoarseRoots)
		if err != nil {
			return krylov.Result{}, nil, err
		}
		agg = a
	}
	w := comm.NewWorld(size)
	if opt.Fabric != nil {
		w.SetFabric(opt.Fabric)
	}
	if opt.Policy != (comm.RetryPolicy{}) {
		w.SetRetryPolicy(opt.Policy)
	}
	// The outer matvec runs the shared fine operator's resident kernel
	// when it has one, so both backends apply the same stored
	// coefficients; the tensor kernel otherwise. Both are safe to share
	// across ranks.
	var kern elementApplier = fem.NewTensor(s.Prob)
	if rb, ok := s.Op.Auu.(op.ResidentBacked); ok {
		kern = rb.Resident()
	}
	var (
		mu      sync.Mutex
		res     krylov.Result
		stats   = make([]RankStats, size)
		rankErr = make([]error, size)
	)
	w.Run(func(r *comm.Rank) {
		sc := tel.Child(fmt.Sprintf("rank%d", r.ID))
		sink := &errSink{}
		dists := make([]*comm.Dist, nl)
		for l := range decomps {
			dists[l] = comm.NewDist(r, layouts[l][r.ID], sc)
		}
		dmg, err := mg.NewDistOpts(s.MG, dists, mg.DistOptions{Agg: agg})
		if err != nil {
			rankErr[r.ID] = err
			// Stay collective even on failure: every other rank will
			// fail the same way, so returning here is safe.
			return
		}
		fine := dists[0]
		spans := coupledSpans(s.Op, fine.L)
		a := &distOp{op: s.Op, kern: kern, dist: fine, sink: sink, spans: spans}
		m := &distFieldSplit{op: s.Op, dmg: dmg, mp: s.Mp, l: fine.L,
			tu: la.NewVec(s.Op.Np), pspans: pressureSpans(fine.L)}
		prm := prmIn
		prm.Reducer = &coupledReducer{op: s.Op, dist: fine}
		prm.Exchanger = &coupledExchanger{op: s.Op, dist: fine}
		prm.Telemetry = sc.Child("krylov")
		prm.Pipelined = opt.Pipelined
		prm.Spans = spans

		// Windowed clone: only the owned+ghost entries of the global
		// residual are ever read by this rank's iteration, so the pages
		// outside the windows are never touched (or even faulted in).
		b := la.NewVec(n)
		b.CopySpans(f, spans)
		d := la.NewVec(n)
		var rr krylov.Result
		if method == "fgmres" {
			rr = krylov.FGMRES(a, m, b, d, prm)
		} else {
			rr = krylov.GCR(a, m, b, d, prm, nil)
		}
		sink.note(dmg.Err())
		sink.note(rr.Err)

		// Assemble this rank's owned slice of the correction.
		du, dp := s.Op.Split(d)
		gu, gp := s.Op.Split(delta)
		mu.Lock()
		box := fine.L.Owned
		da := fine.L.D.DA
		for k := box.Lo[2]; k < box.Hi[2]; k++ {
			for j := box.Lo[1]; j < box.Hi[1]; j++ {
				row := (k*da.NPy + j) * da.NPx
				lo, hi := 3*(row+box.Lo[0]), 3*(row+box.Hi[0])
				copy(gu[lo:hi], du[lo:hi])
			}
		}
		for _, e := range fine.L.Elems {
			copy(gp[4*e:4*e+4], dp[4*e:4*e+4])
		}
		if r.ID == 0 {
			res = rr
		}
		stats[r.ID] = rankCommCounters(sc, r.ID).sub(before[r.ID])
		rankErr[r.ID] = sink.err
		mu.Unlock()
	})
	for rid, err := range rankErr {
		if err != nil {
			return res, stats, fmt.Errorf("stokes: distributed solve, rank %d: %w", rid, err)
		}
	}
	return res, stats, nil
}
