package mg

import (
	"fmt"
	"sync"

	"ptatin3d/internal/fem"
	"ptatin3d/internal/krylov"
	"ptatin3d/internal/la"
	"ptatin3d/internal/op"
	"ptatin3d/internal/telemetry"
)

// Level is one rung of the multigrid hierarchy. The operator is an
// internal/op representation; which one (matrix-free, assembled,
// Galerkin, stored-coefficient) is entirely op's concern — this package
// never dispatches on it.
type Level struct {
	Prob     *fem.Problem // discretization (nil only if purely algebraic)
	Op       op.Operator
	Smoother *krylov.Chebyshev
	// Blocked, when non-nil, replaces Smoother in the cycle with the
	// cache-blocked wavefront Chebyshev over the operator's resident
	// backing. It computes bit-identical iterates (the unblocked
	// recurrence with the final residual elided), so swapping it in is a
	// pure performance substitution.
	Blocked *fem.BlockedChebyshev
	P       *Prolongation // transfer from the next-coarser level (nil on coarsest)

	r, e, bc la.Vec // work vectors
}

// smooth runs the level's smoother, preferring the blocked variant.
func (lev *Level) smooth(b, x la.Vec, zeroGuess bool) {
	if lev.Blocked != nil {
		lev.Blocked.Smooth(b, x, zeroGuess)
		return
	}
	lev.Smoother.Smooth(b, x, zeroGuess)
}

// MG is a geometric multigrid V-cycle preconditioner for the viscous
// block. Levels[0] is finest. CoarseSolve is applied on the coarsest
// level; typical choices are an amg.SA V-cycle (the paper's GAMG coarse
// solver), krylov.BlockJacobi, or an InnerKrylov CG+ASM solve (rifting
// configuration).
type MG struct {
	Levels      []*Level
	CoarseSolve krylov.Preconditioner
	// CyclesPerApply applies the cycle this many times per preconditioner
	// application (1 in all paper configurations).
	CyclesPerApply int
	// Gamma is the cycle index: 1 = V-cycle (the paper's choice),
	// 2 = W-cycle (each level recurses twice). Exposed for ablations;
	// note that with Chebyshev smoothing on [0.2λ, 1.1λ] the W-cycle
	// AMPLIFIES modes between the coarse grid's reach and the lower
	// Chebyshev bound on every extra visit, so V-cycles are the right
	// production pairing (see TestWCycle).
	Gamma int

	// EigIts is the power-iteration count used for λmax when smoothers
	// are (re)built; Build records its option here so Refresh reproduces
	// the same spectrum estimate.
	EigIts int

	tel     []levelTel         // per-level instrument handles; empty when telemetry off
	cycles  *telemetry.Counter // V-cycles started
	coarseT *telemetry.Timer   // coarse-solve wall time
	coarseC *telemetry.Counter // coarse-solve applications

	// coarseMu serializes redundant agglomerated coarse solves: the
	// shared CoarseSolve may hold internal work state, and with
	// agglomeration several rank goroutines apply it concurrently
	// (identical inputs). On the one-core simulation host serializing
	// costs nothing; each root still gets the identical answer.
	coarseMu sync.Mutex
}

// levelTel caches one level's telemetry handles. The zero value (all nil)
// records nothing: every instrument is nil-safe, so the disabled cost in
// the cycle is a handful of nil checks.
type levelTel struct {
	smooth, op, restrict, prolong *telemetry.Timer
	smooths, ops                  *telemetry.Counter
}

// lt returns the cached handles for level l, or inert handles when
// telemetry is off.
func (m *MG) lt(l int) levelTel {
	if l < len(m.tel) {
		return m.tel[l]
	}
	return levelTel{}
}

// SetTelemetry installs per-level instrumentation under sc: child scopes
// level0…levelN each with "smooth"/"op"/"restrict"/"prolong" timers and
// "smooth_applies"/"op_applies" counters, a "coarse" child with a "solve"
// timer and "solves" counter, and a "cycles" counter on sc itself. Handles
// are cached here, so the cycle's hot path never takes the scope lock.
// Passing nil uninstalls.
func (m *MG) SetTelemetry(sc *telemetry.Scope) {
	if sc == nil {
		m.tel, m.cycles, m.coarseT, m.coarseC = nil, nil, nil, nil
		return
	}
	m.tel = make([]levelTel, len(m.Levels))
	for l := range m.Levels {
		lsc := sc.Child(fmt.Sprintf("level%d", l))
		m.tel[l] = levelTel{
			smooth:   lsc.Timer("smooth"),
			op:       lsc.Timer("op"),
			restrict: lsc.Timer("restrict"),
			prolong:  lsc.Timer("prolong"),
			smooths:  lsc.Counter("smooth_applies"),
			ops:      lsc.Counter("op_applies"),
		}
	}
	csc := sc.Child("coarse")
	m.cycles = sc.Counter("cycles")
	m.coarseT = csc.Timer("solve")
	m.coarseC = csc.Counter("solves")
}

// Options configures Build.
type Options struct {
	Kinds       []op.Kind // per level; Kinds[0] is the finest
	SmoothSteps int       // Chebyshev steps: V(k,k) uses k (paper: 2 or 3)
	EigIts      int       // power iterations for λmax (default 10)
	Workers     int
	// FineOp, when non-nil, is used as the finest level's operator
	// instead of building one from Kinds[0] (it must discretize
	// probs[0]). The coupled Stokes solver passes its fine viscous
	// operator here so it is constructed exactly once. When the
	// Blocked/Precision substitution maps FineOp's kind to another
	// representation (Tensor → TensorC when blocked, float64 kinds →
	// their float32 twins), the hierarchy builds that one instead and
	// leaves FineOp to the caller.
	FineOp op.Operator
	// Blocked selects the cache-blocked wavefront Chebyshev smoother on
	// every level whose operator is resident-backed (Tensor kinds are
	// upgraded to TensorC to make them so). Bit-identical to the
	// unblocked smoother; purely a performance substitution.
	Blocked bool
	// Precision runs the hierarchy's smoother operators at the given
	// width: op.F32 swaps matrix-free levels to TensorF32 and assembled
	// mid-levels to AssembledF32. The coarsest level always stays float64
	// — the coarse solver consumes the exact assembled matrix — and so do
	// all transfer operators and vectors. Meant for preconditioner use
	// under a flexible outer Krylov method (FGMRES/GCR).
	Precision op.Precision
}

// Build wires a multigrid hierarchy from per-level discretizations
// (probs[0] finest) and per-level operator kinds. The coarse solver is
// left nil; callers must set CoarseSolve (or call UseBlockJacobiCoarse).
func Build(probs []*fem.Problem, opt Options) (*MG, error) {
	if len(probs) < 2 {
		return nil, fmt.Errorf("mg: need at least 2 levels, got %d", len(probs))
	}
	if len(opt.Kinds) != len(probs) {
		return nil, fmt.Errorf("mg: %d kinds for %d levels", len(opt.Kinds), len(probs))
	}
	if opt.SmoothSteps <= 0 {
		opt.SmoothSteps = 2
	}
	if opt.EigIts <= 0 {
		opt.EigIts = 10
	}
	if opt.Workers <= 0 {
		opt.Workers = 1
	}
	m := &MG{CyclesPerApply: 1, EigIts: opt.EigIts}
	for l, p := range probs {
		p.Workers = opt.Workers
		lev := &Level{Prob: p}
		if l > 0 {
			fp := probs[l-1]
			lev.P = NewProlongation(fp.DA, p.DA, fp.BC, p.BC)
			lev.P.Workers = opt.Workers
		}
		needCSR := l == len(probs)-1
		if l == 0 && opt.FineOp != nil && levelKind(opt.FineOp.Kind(), needCSR, opt) == opt.FineOp.Kind() {
			lev.Op = opt.FineOp
		} else {
			env := op.Env{
				Prob:    p,
				Workers: opt.Workers,
				Level:   l,
				Levels:  len(probs),
			}
			if l > 0 {
				finer := m.Levels[l-1]
				lp := lev.P
				env.FineCSR = func() *la.CSR { return finer.Op.CSR() }
				env.Prolong = lp.ToCSR
			}
			kind := levelKind(opt.Kinds[l], needCSR, opt)
			o, err := op.New(kind, env)
			if err != nil {
				return nil, fmt.Errorf("mg: level %d (%v): %w", l, kind, err)
			}
			lev.Op = o
		}
		if err := lev.Op.Setup(); err != nil {
			return nil, fmt.Errorf("mg: level %d setup: %w", l, err)
		}
		// Jacobi-preconditioned Chebyshev smoother on every level
		// (paper §III-C), targeting [0.2λmax, 1.1λmax]. Representations
		// guarantee a nonzero diagonal (unit entries on constrained
		// rows), so no per-representation fix-up is needed here.
		n := lev.Op.N()
		diag := la.NewVec(n)
		lev.Op.Diag(diag)
		jac := krylov.NewJacobi(diag)
		lmax := krylov.EstimateLambdaMax(lev.Op, jac, opt.EigIts)
		lev.Smoother = krylov.NewChebyshev(lev.Op, jac, lmax, opt.SmoothSteps)
		if opt.Blocked {
			if res := op.ResidentOf(lev.Op); res != nil {
				lev.Blocked = fem.NewBlockedChebyshev(res, jac.InvDiag, lmax, opt.SmoothSteps)
				// Keep the unblocked fallback (distributed views copy its
				// interval) at the same apply count as the blocked sweeps.
				lev.Smoother.NoFinalResidual = true
			}
		}
		lev.r, lev.e, lev.bc = la.NewVec(n), la.NewVec(n), la.NewVec(n)
		m.Levels = append(m.Levels, lev)
	}
	return m, nil
}

// levelKind maps a requested per-level kind through the Blocked/Precision
// substitutions: at op.F32, matrix-free kinds become TensorF32 and
// rediscretized-assembled mid-levels AssembledF32 (Galerkin stays — its
// float64 triple product feeds the levels below); with Blocked at
// float64, Tensor upgrades to the resident TensorC so the wavefront
// smoother has stored coefficients to block over. The coarsest level
// (needCSR) is never substituted.
func levelKind(k op.Kind, needCSR bool, opt Options) op.Kind {
	if needCSR {
		return k
	}
	if opt.Precision == op.F32 {
		switch k {
		case op.Tensor, op.TensorC, op.MFRef:
			return op.TensorF32
		case op.Assembled:
			return op.AssembledF32
		}
		return k
	}
	if opt.Blocked && k == op.Tensor {
		return op.TensorC
	}
	return k
}

// Refresh re-derives every level's numeric content from the (already
// updated) per-level problem coefficients, in place: operators refresh
// finest→coarsest so Galerkin levels read the refreshed finer matrix,
// then each level's smoother is rebuilt exactly as Build builds it — same
// Jacobi diagonal, same deterministic λmax power iteration, same
// Chebyshev interval and step count — so a refreshed hierarchy is
// bit-identical to one constructed cold on the same coefficients. The
// transfer operators, work vectors and coarse-solver wiring are purely
// topological and survive untouched (the caller owns CoarseSolve and must
// rebuild it from the refreshed coarsest matrix).
func (m *MG) Refresh() error {
	eig := m.EigIts
	if eig <= 0 {
		eig = 10
	}
	for l, lev := range m.Levels {
		if err := op.Refresh(lev.Op); err != nil {
			return fmt.Errorf("mg: level %d refresh: %w", l, err)
		}
		n := lev.Op.N()
		diag := la.NewVec(n)
		lev.Op.Diag(diag)
		jac := krylov.NewJacobi(diag)
		lmax := krylov.EstimateLambdaMax(lev.Op, jac, eig)
		steps := lev.Smoother.Steps
		noFinal := lev.Smoother.NoFinalResidual
		lev.Smoother = krylov.NewChebyshev(lev.Op, jac, lmax, steps)
		lev.Smoother.NoFinalResidual = noFinal
		if lev.Blocked != nil {
			res := op.ResidentOf(lev.Op)
			if res == nil {
				return fmt.Errorf("mg: level %d lost its resident backing on refresh", l)
			}
			lev.Blocked = fem.NewBlockedChebyshev(res, jac.InvDiag, lmax, steps)
		}
	}
	return nil
}

// UseBlockJacobiCoarse installs a block-Jacobi + exact-LU coarse solver on
// the coarsest level (which must have an assembled representation).
func (m *MG) UseBlockJacobiCoarse(nblocks int) error {
	last := m.Levels[len(m.Levels)-1]
	a := last.Op.CSR()
	if a == nil {
		return fmt.Errorf("mg: coarsest level is not assembled")
	}
	bj, err := krylov.NewBlockJacobi(a, nblocks)
	if err != nil {
		return err
	}
	m.CoarseSolve = bj
	return nil
}

// Apply runs CyclesPerApply V-cycles as a preconditioner: z ≈ A⁻¹·r.
func (m *MG) Apply(r, z la.Vec) {
	z.Zero()
	for c := 0; c < max(1, m.CyclesPerApply); c++ {
		m.vcycle(0, r, z, c == 0)
	}
}

// VCycle exposes a single V-cycle from an existing iterate (x updated in
// place).
func (m *MG) VCycle(b, x la.Vec) { m.vcycle(0, b, x, false) }

func (m *MG) vcycle(l int, b, x la.Vec, zeroGuess bool) {
	lev := m.Levels[l]
	lt := m.lt(l)
	if l == 0 {
		m.cycles.Inc()
	}
	if l == len(m.Levels)-1 {
		if m.CoarseSolve == nil {
			// Fall back to smoothing only.
			st := lt.smooth.Start()
			lev.smooth(b, x, zeroGuess)
			lt.smooth.Stop(st)
			lt.smooths.Inc()
			return
		}
		st := m.coarseT.Start()
		if zeroGuess {
			m.CoarseSolve.Apply(b, x)
		} else {
			// Correction form for nonzero initial guess.
			lev.Op.Apply(x, lev.r)
			lev.r.AYPX(-1, b)
			m.CoarseSolve.Apply(lev.r, lev.e)
			x.AXPY(1, lev.e)
		}
		m.coarseT.Stop(st)
		m.coarseC.Inc()
		return
	}
	// Pre-smooth.
	st := lt.smooth.Start()
	lev.smooth(b, x, zeroGuess)
	lt.smooth.Stop(st)
	lt.smooths.Inc()
	// Residual and restriction.
	st = lt.op.Start()
	lev.Op.Apply(x, lev.r)
	lt.op.Stop(st)
	lt.ops.Inc()
	lev.r.AYPX(-1, b)
	next := m.Levels[l+1]
	st = lt.restrict.Start()
	next.P.ApplyTranspose(lev.r, next.bc)
	lt.restrict.Stop(st)
	// Coarse correction (γ recursive visits: V- or W-cycle).
	gamma := m.Gamma
	if gamma < 1 {
		gamma = 1
	}
	next.e.Zero()
	m.vcycle(l+1, next.bc, next.e, true)
	for g := 1; g < gamma; g++ {
		m.vcycle(l+1, next.bc, next.e, false)
	}
	st = lt.prolong.Start()
	next.P.Apply(next.e, lev.e)
	lt.prolong.Stop(st)
	x.AXPY(1, lev.e)
	// Post-smooth.
	st = lt.smooth.Start()
	lev.smooth(b, x, false)
	lt.smooth.Stop(st)
	lt.smooths.Inc()
}
