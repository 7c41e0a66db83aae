package stokes

import (
	"fmt"
	"time"

	"ptatin3d/internal/amg"
	"ptatin3d/internal/comm"
	"ptatin3d/internal/fem"
	"ptatin3d/internal/krylov"
	"ptatin3d/internal/la"
	"ptatin3d/internal/mesh"
	"ptatin3d/internal/mg"
	"ptatin3d/internal/op"
	"ptatin3d/internal/telemetry"
)

// Config selects one of the paper's solver configurations.
type Config struct {
	// Levels is the geometric multigrid depth. Levels == 1 selects a pure
	// algebraic preconditioner on the assembled fine operator (the SA-i /
	// SAML-* rows of Table IV).
	Levels int
	// FineKind picks the fine-level operator representation (op.Tensor,
	// op.MFRef, op.Assembled — the Tens/MF/Asmb columns of Tables I–III).
	// The coarse levels follow op.DefaultLevelKinds. op.Galerkin selects
	// the GMG-ii layout: assembled fine level with Galerkin products on
	// every coarse level; the built Solver's Cfg.FineKind then reads
	// op.Assembled, the representation the fine level actually uses.
	FineKind op.Kind
	// Blocked runs the V-cycle's Chebyshev smoothers cache-blocked
	// (mg.Options.Blocked) on every level with a resident backing.
	// With a resident fine kind (TensorC, the default) the hierarchy
	// smooths over the coupled matvec's own fine operator; with Tensor
	// it builds a TensorC twin for smoothing. Bit-identical smoothing,
	// purely a performance substitution. Ignored when Levels <= 1.
	Blocked bool
	// Precision runs the V-cycle's operator stack at the given width
	// (mg.Options.Precision): op.F32 halves smoother memory traffic while
	// the outer GCR/FGMRES iteration — and the residuals it reports —
	// stay float64. Ignored when Levels <= 1.
	Precision op.Precision
	// SmoothSteps is the Chebyshev degree: V(k,k) (paper uses 2 or 3).
	SmoothSteps int
	// CoarseSolver: "gamg" (one SA V-cycle, the paper's default), "lu",
	// "bjacobi", or "asmcg" (CG preconditioned by ASM(overlap 4, ILU(0)),
	// max 25 iterations — the rifting configuration of §V-A).
	CoarseSolver string
	// CoarseBlocks configures "bjacobi"; ASMSubdomains/ASMOverlap configure
	// "asmcg".
	CoarseBlocks  int
	ASMSubdomains int
	ASMOverlap    int
	// AMGConfig selects the algebraic preconditioner when Levels == 1:
	// "gamg", "ml" (SAML-i) or "mlstrong" (SAML-ii).
	AMGConfig string
	// OuterMethod: "gcr" (paper's preference — explicit residual) or
	// "fgmres" (better numerical stability for extreme contrast).
	OuterMethod string
	// Params controls the outer Krylov iteration (rtol 1e-5 in the paper).
	Params krylov.Params
	// Restart, when > 0, overrides Params.Restart for the outer Krylov
	// method. FGMRES discards its Krylov space at every restart, and with
	// viscosity contrasts Δη ≥ 1e5 the default window of 50 can stall just
	// short of the tolerance; high-contrast configurations should raise
	// this (the Δη=1e6 parity runs use 200).
	Restart int
	// Telemetry, when non-nil, is the scope the solver instruments itself
	// under: "outer" (matmult/pcapply/coarse timers, setup_seconds gauge),
	// "krylov" (outer iteration counters + residual trace), "mg"/"amg"
	// (per-level cycle breakdowns). When nil the solver still wires its
	// probes to a private registry so MatMult/PCApply counts stay live.
	Telemetry *telemetry.Scope
	// Workers is the intra-node parallel width ("cores").
	Workers int
	// CoeffCoarsen fills coarse-level coefficients (see mg.CoarsenProblems).
	CoeffCoarsen func(level int, p *fem.Problem)
	// VerticalAxis is the gravity direction (for residual monitoring).
	VerticalAxis int
}

// DefaultConfig returns the paper's production configuration: 3 levels,
// V(2,2), Galerkin coarsest operator, one GAMG V-cycle as coarse solver,
// GCR outer to rtol 1e-5 (§IV-A). The fine level is the stored-coefficient
// tensor kernel (TensorC, "mfc") smoothed cache-blocked: one resident
// operator serves the outer matvec and the wavefront Chebyshev smoother,
// whose iterates are bit-identical to the unblocked recurrence. It is the
// fastest layout measured by the time-loop benchmark; the paper's tables
// pin their fine kind explicitly.
func DefaultConfig() Config {
	prm := krylov.DefaultParams()
	prm.RTol = 1e-5
	prm.MaxIt = 500
	prm.Restart = 50
	return Config{
		Levels:       3,
		FineKind:     op.TensorC,
		Blocked:      true,
		SmoothSteps:  2,
		CoarseSolver: "gamg",
		OuterMethod:  "gcr",
		Params:       prm,
		Workers:      1,
		VerticalAxis: 2,
	}
}

// EffectiveParams returns the outer Krylov parameters with the Restart
// override applied. Callers driving their own Krylov iteration from a
// Config (the nonlinear loop) should use this rather than Params.
func (c Config) EffectiveParams() krylov.Params {
	prm := c.Params
	if c.Restart > 0 {
		prm.Restart = c.Restart
	}
	return prm
}

// Solver is a configured coupled Stokes solver.
type Solver struct {
	Cfg  Config
	Prob *fem.Problem
	Op   *Op
	C    *fem.Coupling
	Mp   *fem.PressureMass
	FS   *FieldSplit
	MG   *mg.MG  // nil for pure-AMG configurations
	SA   *amg.SA // the coarse/standalone algebraic component, if any

	// Tel is the telemetry scope the solver records under: Config.Telemetry
	// when provided, otherwise the root of a private registry.
	Tel *telemetry.Scope

	// Instrumentation (Table IV columns).
	SetupTime   time.Duration
	MatMult     *OpProbe
	PCApply     *PCProbe
	CoarseApply *PCProbe // wraps the coarse-grid solver inside MG

	// amgVA backs the standalone-AMG configuration (Levels <= 1) when the
	// fine operator has no assembled form of its own: the assembly is
	// cached so Refresh recomputes values in place instead of
	// re-deriving the sparsity.
	amgVA *fem.ViscousAssembly
	amgA  *la.CSR

	// dcache holds the distributed decompositions and per-rank layouts of
	// the last world shape — purely topological, so they survive
	// coefficient refreshes and ALE coordinate updates.
	dcache distCache
}

// distCache caches the per-level decompositions and [level][rank]
// layouts of one world shape.
type distCache struct {
	px, py, pz int
	decomps    []*comm.Decomp
	layouts    [][]*comm.Layout
}

// Monitor records the per-iteration field residual norms of a GCR solve —
// the data behind Figure 2 (vertical momentum vs. pressure residual).
type Monitor struct {
	Iter     []int
	Momentum []float64 // full velocity residual norm
	Vertical []float64 // vertical momentum component
	Pressure []float64
}

// New builds a Solver for the problem's current coefficients/geometry.
func New(prob *fem.Problem, cfg Config) (*Solver, error) {
	start := time.Now()
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	levelKinds := op.DefaultLevelKinds(max(1, cfg.Levels), cfg.FineKind)
	cfg.FineKind = levelKinds[0]
	cfg.Params = cfg.EffectiveParams()
	prob.Workers = cfg.Workers
	s := &Solver{Cfg: cfg, Prob: prob}
	s.Tel = cfg.Telemetry
	if s.Tel == nil {
		// Private registry: probes stay live even with telemetry "off".
		s.Tel = telemetry.New().Root()
	}
	s.C = fem.NewCoupling(prob)
	s.Mp = fem.NewPressureMass(prob)

	// Fine-level viscous operator, shared between the coupled matvec and
	// the multigrid hierarchy (mg.Options.FineOp), so it is built once.
	mgScope := s.Tel.Child("mg")
	auu, err := op.New(cfg.FineKind, op.Env{
		Prob:    prob,
		Workers: cfg.Workers,
		Level:   0,
		Levels:  max(1, cfg.Levels),
	})
	if err != nil {
		return nil, fmt.Errorf("stokes: fine operator: %w", err)
	}
	if err := auu.Setup(); err != nil {
		return nil, fmt.Errorf("stokes: fine operator setup: %w", err)
	}
	s.Op = NewOp(prob, auu, s.C)

	// Viscous-block preconditioner.
	var innerU krylov.Preconditioner
	if cfg.Levels <= 1 {
		if a := auu.CSR(); a != nil {
			s.amgA = a
		} else {
			s.amgVA = fem.NewViscousAssembly(prob)
			s.amgVA.Refresh()
			s.amgA = s.amgVA.A
		}
		sa, err := buildAMG(s.amgA, prob, cfg)
		if err != nil {
			return nil, err
		}
		s.SA = sa
		innerU = sa
	} else {
		probs := mg.CoarsenProblems(prob, cfg.Levels, cfg.CoeffCoarsen)
		// The hierarchy smooths over auu unless Blocked/Precision
		// substitutes another fine representation (mg.Options.FineOp);
		// the coupled operator stays FineKind either way, so outer
		// residuals are untouched by the preconditioner's precision.
		gmg, err := mg.Build(probs, mg.Options{
			Kinds:       levelKinds,
			SmoothSteps: cfg.SmoothSteps,
			Workers:     cfg.Workers,
			FineOp:      auu,
			Blocked:     cfg.Blocked,
			Precision:   cfg.Precision,
		})
		if err != nil {
			return nil, fmt.Errorf("stokes: GMG setup: %w", err)
		}
		coarse, sa, err := buildCoarseSolver(gmg, probs[len(probs)-1], cfg)
		if err != nil {
			return nil, err
		}
		s.SA = sa
		s.CoarseApply = NewPCProbe(coarse, s.Tel.Child("outer").Timer("coarse"))
		gmg.CoarseSolve = s.CoarseApply
		gmg.SetTelemetry(mgScope)
		s.MG = gmg
		innerU = gmg
	}
	if s.SA != nil {
		s.SA.SetTelemetry(s.Tel.Child("amg"))
	}
	s.FS = NewFieldSplit(s.Op, innerU, s.Mp)
	outer := s.Tel.Child("outer")
	s.MatMult = NewOpProbe(s.Op, outer.Timer("matmult"))
	s.PCApply = NewPCProbe(s.FS, outer.Timer("pcapply"))
	if s.Cfg.Params.Telemetry == nil {
		s.Cfg.Params.Telemetry = s.Tel.Child("krylov")
	}
	s.SetupTime = time.Since(start)
	outer.Gauge("setup_seconds").Set(s.SetupTime.Seconds())
	return s, nil
}

// buildCoarseSolver instantiates the coarsest-level solver from the
// hierarchy's assembled coarse matrix (op.Operator.CSR — the op layer's
// coarse-level handoff to the algebraic solvers).
func buildCoarseSolver(gmg *mg.MG, coarseProb *fem.Problem, cfg Config) (krylov.Preconditioner, *amg.SA, error) {
	last := gmg.Levels[len(gmg.Levels)-1]
	a := last.Op.CSR()
	if a == nil {
		return nil, nil, fmt.Errorf("stokes: coarsest GMG level must be assembled")
	}
	switch cfg.CoarseSolver {
	case "", "gamg":
		opt := amg.GAMGLike()
		opt.SmoothSteps = max(1, cfg.SmoothSteps)
		sa, err := amg.New(a, 3, amg.RigidBodyModes(coarseProb.DA.Coords, coarseProb.BC.Mask), opt)
		if err != nil {
			return nil, nil, fmt.Errorf("stokes: GAMG coarse solver: %w", err)
		}
		return sa, sa, nil
	case "lu":
		bj, err := krylov.NewBlockJacobi(a, 1)
		return bj, nil, err
	case "bjacobi":
		nb := cfg.CoarseBlocks
		if nb <= 0 {
			nb = 8
		}
		bj, err := krylov.NewBlockJacobi(a, nb)
		return bj, nil, err
	case "asmcg":
		nsub := cfg.ASMSubdomains
		if nsub <= 0 {
			nsub = 8
		}
		ov := cfg.ASMOverlap
		if ov <= 0 {
			ov = 4
		}
		asmPC, err := krylov.NewASM(a, krylov.ASMOptions{Subdomains: nsub, Overlap: ov})
		if err != nil {
			return nil, nil, fmt.Errorf("stokes: ASM coarse solver: %w", err)
		}
		inner := &krylov.InnerKrylov{
			A: krylov.CSROp{A: a}, M: asmPC, Method: "cg",
			Prm: krylov.Params{RTol: 1e-4, ATol: 1e-300, MaxIt: 25},
		}
		return inner, nil, nil
	}
	return nil, nil, fmt.Errorf("stokes: unknown coarse solver %q", cfg.CoarseSolver)
}

// buildAMG constructs the standalone algebraic preconditioner (Levels <=
// 1 configurations) from the assembled viscous block.
func buildAMG(a *la.CSR, prob *fem.Problem, cfg Config) (*amg.SA, error) {
	opt := amg.GAMGLike()
	switch cfg.AMGConfig {
	case "ml":
		opt = amg.MLLike()
	case "mlstrong":
		opt = amg.MLStrongLike()
	}
	opt.SmoothSteps = max(1, cfg.SmoothSteps)
	sa, err := amg.New(a, 3, amg.RigidBodyModes(prob.DA.Coords, prob.BC.Mask), opt)
	if err != nil {
		return nil, fmt.Errorf("stokes: AMG setup: %w", err)
	}
	return sa, nil
}

// Refresh re-derives the solver's numeric state from the problem's
// current coefficients — and, when geomChanged, coordinates — without
// rebuilding any topology: coarse-level coefficients are re-restricted
// through the configured coarsener, assembled/Galerkin/resident operator
// values are recomputed in place into their cached sparsity, smoother
// spectra are re-estimated exactly as a cold build would, and the
// value-dependent algebraic components (GAMG/ASM/LU coarse solvers) are
// rebuilt from the refreshed coarse matrices. The result is bit-identical
// to constructing a new Solver on the same state; only the setup cost
// changes. geomChanged must be true whenever the fine mesh coordinates
// moved since the last Setup/Refresh (ALE remeshing).
func (s *Solver) Refresh(geomChanged bool) error {
	start := time.Now()
	if geomChanged {
		if s.MG != nil {
			for l := 1; l < len(s.MG.Levels); l++ {
				fp, cp := s.MG.Levels[l-1].Prob, s.MG.Levels[l].Prob
				mesh.RefreshCoarsenCoords(fp.DA, cp.DA)
				mesh.RefreshCoarsenBCVals(fp.DA, cp.DA, fp.BC, cp.BC)
			}
		}
		// The coupling blocks depend only on geometry.
		s.C.Setup()
	}
	// Re-restrict the coarse coefficients in CoarsenProblems level order.
	if s.MG != nil && s.Cfg.CoeffCoarsen != nil {
		for l := 1; l < len(s.MG.Levels); l++ {
			s.Cfg.CoeffCoarsen(l, s.MG.Levels[l].Prob)
		}
	}
	// The pressure mass matrix is viscosity-scaled: always re-derive.
	s.Mp.Setup()
	if s.MG != nil {
		if any(s.MG.Levels[0].Op) != any(s.Op.Auu) {
			// A hierarchy with a substituted fine operator (Blocked over
			// Tensor, F32) owns it; the coupled-matvec operator refreshes
			// separately.
			if err := op.Refresh(s.Op.Auu); err != nil {
				return fmt.Errorf("stokes: fine operator refresh: %w", err)
			}
		}
		if err := s.MG.Refresh(); err != nil {
			return fmt.Errorf("stokes: %w", err)
		}
		coarse, sa, err := buildCoarseSolver(s.MG, s.MG.Levels[len(s.MG.Levels)-1].Prob, s.Cfg)
		if err != nil {
			return err
		}
		s.SA = sa
		s.CoarseApply = NewPCProbe(coarse, s.Tel.Child("outer").Timer("coarse"))
		s.MG.CoarseSolve = s.CoarseApply
	} else {
		if err := op.Refresh(s.Op.Auu); err != nil {
			return fmt.Errorf("stokes: fine operator refresh: %w", err)
		}
		if s.amgVA != nil {
			s.amgVA.Refresh()
		}
		sa, err := buildAMG(s.amgA, s.Prob, s.Cfg)
		if err != nil {
			return err
		}
		s.SA = sa
		s.FS.InnerU = sa
	}
	if s.SA != nil {
		s.SA.SetTelemetry(s.Tel.Child("amg"))
	}
	s.SetupTime = time.Since(start)
	s.Tel.Child("outer").Gauge("setup_seconds").Set(s.SetupTime.Seconds())
	return nil
}

// Solve performs one linear Stokes solve in residual-correction form: the
// state x = [u;p] (with boundary values applied to u) is improved so that
// J·x ≈ [bu;0] to the configured tolerance of the *unpreconditioned*
// residual. A non-nil monitor collects the Figure-2 residual histories.
func (s *Solver) Solve(x, bu la.Vec, mon *Monitor) krylov.Result {
	n := s.Op.N()
	f := la.NewVec(n)
	s.Op.Residual(x, bu, f)
	f.Scale(-1)
	delta := la.NewVec(n)
	var cb func(it int, r la.Vec)
	if mon != nil {
		cb = func(it int, r la.Vec) {
			uN, vN, pN := s.Op.FieldNorms(r, s.Cfg.VerticalAxis)
			mon.Iter = append(mon.Iter, it)
			mon.Momentum = append(mon.Momentum, uN)
			mon.Vertical = append(mon.Vertical, vN)
			mon.Pressure = append(mon.Pressure, pN)
		}
	}
	run := func(method string) krylov.Result {
		if method == "fgmres" {
			return krylov.FGMRES(s.MatMult, s.PCApply, f, delta, s.Cfg.Params)
		}
		return krylov.GCR(s.MatMult, s.PCApply, f, delta, s.Cfg.Params, cb)
	}
	res := run(s.Cfg.OuterMethod)
	if res.Err != nil {
		// Breakdown recovery: discard the poisoned correction and rerun
		// once with the alternate outer method. The field-split
		// preconditioner is nonlinear, so both GCR and FGMRES are legal;
		// they fail differently (explicit residual vs. Arnoldi recurrence),
		// which is exactly what makes the switch worth trying.
		outer := s.Tel.Child("outer")
		outer.Counter("breakdown_recoveries").Inc()
		alt := "fgmres"
		if s.Cfg.OuterMethod == "fgmres" {
			alt = "gcr"
		}
		prevIts := res.Iterations
		delta.Zero()
		res = run(alt)
		res.Iterations += prevIts
		if res.Err == nil {
			outer.Counter("breakdowns_recovered").Inc()
		}
	}
	x.AXPY(1, delta)
	return res
}
