// Command ptatin-opcost regenerates Table I of the paper: per-element
// flop and byte counts of the four viscous-operator application
// strategies, the measured machine balance, roofline-predicted times, and
// measured wall times of this implementation's kernels.
//
// Usage:
//
//	ptatin-opcost [-m 16] [-workers 4] [-reps 5] [-telemetry] [-cpuprofile out.pprof]
//	ptatin-opcost -json [-grids 4,8,12,16] [-op mf] [-workers 4] [-reps 5]
//
// With -telemetry the tool additionally runs a multigrid-preconditioned
// Stokes solve on the same deformed mesh and emits the telemetry registry
// twice: a Table-IV-shaped per-component breakdown (calls / wall time /
// time per call, including per-MG-level smoother and operator counts) and
// the full JSON snapshot.
//
// With -json the tool instead sweeps the unified operator backends of
// internal/op (tensor matrix-free, reference matrix-free, rediscretized
// CSR, and — where a 2× finer mesh is affordable — the Galerkin product)
// over the -grids level sizes and emits a machine-readable benchmark
// (apply time, MDoF/s, setup time per backend per size) on stdout; this is
// the producer behind scripts/bench.sh's BENCH_PR4.json.
//
// With -vcycle the tool benchmarks the multigrid V-cycle smoother
// configurations of the mixed-precision PR — unblocked f64 (the
// BENCH_PR4/PR5 baseline), cache-blocked f64, and cache-blocked f32 —
// timing the fine-level pre+post smoothing pair and the whole V-cycle
// application, then runs the Δη=10⁶ sinker-style contrast solve in f64
// and f32 to record outer iteration parity. Emits BENCH_PR7 JSON on
// stdout; this is the producer behind scripts/bench.sh's BENCH_PR7.json.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"time"

	"ptatin3d/internal/cli"
	"ptatin3d/internal/fem"
	"ptatin3d/internal/la"
	"ptatin3d/internal/mesh"
	"ptatin3d/internal/mg"
	"ptatin3d/internal/op"
	"ptatin3d/internal/par"
	"ptatin3d/internal/perfmodel"
	"ptatin3d/internal/stokes"
	"ptatin3d/internal/telemetry"
)

func main() {
	m := flag.Int("m", 16, "elements per direction")
	workers := flag.Int("workers", 0, "worker goroutines (0 = runtime.NumCPU())")
	reps := flag.Int("reps", 5, "timing repetitions (best-of)")
	telFlag := flag.Bool("telemetry", false, "run an instrumented MG Stokes solve and emit the telemetry table + JSON")
	jsonFlag := flag.Bool("json", false, "emit the machine-readable per-backend benchmark (BENCH_PR4 schema) and exit")
	vcycleFlag := flag.Bool("vcycle", false, "emit the V-cycle smoother benchmark (BENCH_PR7 schema) and exit")
	levels := flag.Int("levels", 3, "multigrid depth for -vcycle")
	vcycleGate := flag.Float64("vcycle-gate", 0, "with -vcycle: exit nonzero if the blocked-f64 smoother speedup falls below this (CI regression gate; 0 disables)")
	vcycleParity := flag.Bool("vcycle-parity", true, "with -vcycle: run the Δη=10⁶ f64/f32 outer-iteration parity solves")
	grids := flag.String("grids", "4,8,12", "comma-separated level sizes for -json")
	opFlag := flag.String("op", "", "restrict -json to one of the benchmarked backends (mf|mfref|asm|galerkin)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	flag.Parse()
	*workers = cli.Workers(*workers)

	if *jsonFlag {
		runJSONBench(*grids, *opFlag, *workers, *reps)
		return
	}
	if *vcycleFlag {
		runVCycleBench(*m, *levels, *workers, *reps, *vcycleGate, *vcycleParity)
		return
	}

	if *cpuprofile != "" {
		stop, err := telemetry.StartCPUProfile(*cpuprofile)
		if err != nil {
			log.Fatal(err)
		}
		defer stop()
	}

	p := benchProblem(*m, *workers)
	da := p.DA

	nel := float64(da.NElements())
	n := da.NVelDOF()
	u := la.NewVec(n)
	for i := range u {
		u[i] = math.Sin(float64(i))
	}
	y := la.NewVec(n)

	fmt.Printf("# Table I reproduction — %d³ Q2 elements (%d velocity dofs), %d workers\n",
		*m, n, *workers)

	fmt.Println("\n## Machine balance (measured)")
	mach := perfmodel.MeasureMachine()
	fmt.Printf("stream triad bandwidth: %8.2f GB/s\n", mach.StreamBW/1e9)
	fmt.Printf("scalar flop throughput: %8.2f GF/s\n", mach.FlopRate/1e9)
	fmt.Printf("balance:                %8.2f flops/byte\n", mach.FlopRate/mach.StreamBW)

	fmt.Println("\n## Analytic per-element counts")
	fmt.Printf("%-14s %10s %16s %16s %10s %10s\n",
		"operator", "flops", "bytes(perfect)", "bytes(pessimal)", "AI(perf)", "AI(pess)")
	fmt.Println("paper (Edison, Table I):")
	for _, c := range perfmodel.PaperTableI() {
		fmt.Printf("%-14s %10.0f %16.0f %16.0f %10.1f %10.1f\n",
			c.Name, c.Flops, c.BytesPerfect, c.BytesPessimal,
			c.ArithmeticIntensity(true), c.ArithmeticIntensity(false))
	}
	fmt.Println("this implementation:")
	repro := perfmodel.ReproCounts()
	for _, c := range repro {
		fmt.Printf("%-14s %10.0f %16.0f %16.0f %10.1f %10.1f\n",
			c.Name, c.Flops, c.BytesPerfect, c.BytesPessimal,
			c.ArithmeticIntensity(true), c.ArithmeticIntensity(false))
	}

	// Operator applications.
	type variant struct {
		name  string
		apply func()
		setup time.Duration
	}
	var variants []variant

	t0 := time.Now()
	asm := fem.NewAsm(p)
	asmSetup := time.Since(t0)
	variants = append(variants, variant{"Assembled", func() { asm.Apply(u, y) }, asmSetup})

	mf := fem.NewMF(p)
	variants = append(variants, variant{"Matrix-free", func() { mf.Apply(u, y) }, 0})

	tens := fem.NewTensor(p)
	variants = append(variants, variant{"Tensor", func() { tens.Apply(u, y) }, 0})

	t0 = time.Now()
	tc := fem.NewTensorC(p)
	tcSetup := time.Since(t0)
	variants = append(variants, variant{"TensorC", func() { tc.Apply(u, y) }, tcSetup})

	fmt.Println("\n## Measured operator application (best of", *reps, "reps)")
	fmt.Printf("%-14s %12s %12s %14s %14s %12s\n",
		"operator", "time(ms)", "GF/s", "roofline(ms)", "bound", "setup(ms)")
	for i, v := range variants {
		v.apply() // warm up
		best := time.Duration(1 << 62)
		for r := 0; r < *reps; r++ {
			start := time.Now()
			v.apply()
			if el := time.Since(start); el < best {
				best = el
			}
		}
		c := repro[i]
		roof := mach.RooflineTime(c, true) * nel
		bound := "compute"
		if mach.MemoryBound(c, true) {
			bound = "memory"
		}
		gfs := c.Flops * nel / best.Seconds() / 1e9
		fmt.Printf("%-14s %12.3f %12.2f %14.3f %14s %12.1f\n",
			v.name, float64(best.Microseconds())/1000, gfs, roof*1e3, bound,
			float64(v.setup.Microseconds())/1000)
	}
	fmt.Println("\nShape check (paper): Tensor < Matrix-free < Assembled in time;")
	fmt.Println("assembled SpMV memory-bound, matrix-free kernels compute-bound.")

	if *telFlag {
		runTelemetrySolve(p, *workers)
	}
}

// runTelemetrySolve performs one multigrid-preconditioned Stokes solve on
// the Table-I mesh with the full telemetry stack enabled and emits the
// registry as a Table-IV-shaped breakdown plus the JSON snapshot.
func runTelemetrySolve(p *fem.Problem, workers int) {
	reg := telemetry.New()
	par.SetTelemetry(reg.Root().Child("par"))
	defer par.SetTelemetry(nil)
	fem.SetTelemetry(reg.Root().Child("fem"))
	defer fem.SetTelemetry(nil)

	// Give the Table-I problem a nontrivial body force so the solve has a
	// real RHS: variable density under vertical gravity.
	eta := func(x, y, z float64) float64 {
		return math.Exp(2 * math.Sin(3*x) * math.Cos(2*y))
	}
	rho := func(x, y, z float64) float64 {
		return 1 + 0.5*math.Sin(math.Pi*x)*math.Sin(math.Pi*y)*math.Sin(math.Pi*z)
	}
	p.Gravity = [3]float64{0, 0, -9.8}
	p.SetCoefficientsFunc(eta, rho)

	cfg := stokes.DefaultConfig()
	cfg.Workers = workers
	cfg.Telemetry = reg.Root()
	cfg.CoeffCoarsen = mg.FuncCoeffCoarsener(eta, rho)
	// Clamp MG depth to what the mesh supports (each level halves m).
	mEl := p.DA.Mx
	levels := 1
	for c := mEl; c%2 == 0 && c > 2 && levels < 3; c /= 2 {
		levels++
	}
	if levels < 2 {
		fmt.Fprintf(os.Stderr, "telemetry solve skipped: m=%d cannot coarsen\n", mEl)
		return
	}
	cfg.Levels = levels

	s, err := stokes.New(p, cfg)
	if err != nil {
		log.Fatal(err)
	}
	bu := la.NewVec(p.DA.NVelDOF())
	fem.MomentumRHS(p, bu)
	x := la.NewVec(s.Op.N())
	res := s.Solve(x, bu, nil)

	fmt.Printf("\n## Instrumented MG Stokes solve (%d levels): converged=%v its=%d rel=%.2e\n",
		levels, res.Converged, res.Iterations, res.Residual/res.Residual0)
	fmt.Println("\n## Telemetry breakdown (Table-IV shape)")
	reg.WriteTable(os.Stdout)
	fmt.Println("\n## Telemetry (JSON)")
	if err := reg.WriteJSON(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// benchProblem builds the Table-I deformed variable-viscosity problem at
// size m (shared by the default mode and the -json sweep).
func benchProblem(m, workers int) *fem.Problem {
	da := mesh.New(m, m, m, 0, 1, 0, 1, 0, 1)
	da.Deform(func(x, y, z float64) (float64, float64, float64) {
		return x + 0.05*math.Sin(math.Pi*y), y + 0.04*math.Sin(math.Pi*z), z + 0.03*x*y
	})
	bc := mesh.NewBC(da)
	bc.FreeSlipBox(da, mesh.XMin, mesh.XMax, mesh.YMin, mesh.YMax, mesh.ZMin)
	p := fem.NewProblem(da, bc)
	p.Workers = workers
	p.SetCoefficientsFunc(func(x, y, z float64) float64 {
		return math.Exp(2 * math.Sin(3*x) * math.Cos(2*y))
	}, nil)
	return p
}

// benchRecord is one (backend, size) measurement in the BENCH_PR4 schema.
type benchRecord struct {
	M        int     `json:"m"`
	N        int     `json:"n"`
	Backend  string  `json:"backend"`
	ApplyMs  float64 `json:"apply_ms"`
	MDoFPerS float64 `json:"mdof_per_s"`
	SetupMs  float64 `json:"setup_ms"`
}

// runJSONBench times each internal/op backend's Apply at each level size
// and writes the BENCH_PR4 JSON document to stdout. The Galerkin backend
// needs an assembled 2× finer mesh, so it is only benchmarked at sizes
// where that matrix stays affordable.
func runJSONBench(grids, only string, workers, reps int) {
	var restrict op.Kind
	restricted := false
	if only != "" {
		k, err := op.ParseKind(only)
		if err != nil {
			log.Fatal(err)
		}
		if k != op.Tensor && k != op.MFRef && k != op.Assembled && k != op.Galerkin {
			log.Fatalf("ptatin-opcost -json: -op %v is not benchmarked; pick mf|mfref|asm|galerkin", k)
		}
		restrict, restricted = k, true
	}
	var records []benchRecord
	gridList, err := cli.ParseInts(grids)
	if err != nil {
		log.Fatal(err)
	}
	for _, m := range gridList {
		p := benchProblem(m, workers)
		kinds := []op.Kind{op.Tensor, op.MFRef, op.Assembled}
		if 2*m <= 16 {
			kinds = append(kinds, op.Galerkin)
		}
		for _, k := range kinds {
			if restricted && k != restrict {
				continue
			}
			env := op.Env{Prob: p, Workers: workers}
			if k == op.Galerkin {
				fine := benchProblem(2*m, workers)
				var fineA *la.CSR
				env.FineCSR = func() *la.CSR {
					if fineA == nil {
						fineA = fem.AssembleViscous(fine)
					}
					return fineA
				}
				prol := mg.NewProlongation(fine.DA, p.DA, fine.BC, p.BC)
				env.Prolong = prol.ToCSR
			}
			o, err := op.New(k, env)
			if err != nil {
				log.Fatalf("m=%d %v: %v", m, k, err)
			}
			setupStart := time.Now()
			if err := o.Setup(); err != nil {
				log.Fatalf("m=%d %v setup: %v", m, k, err)
			}
			setup := time.Since(setupStart)
			n := o.N()
			u, y := la.NewVec(n), la.NewVec(n)
			for i := range u {
				u[i] = math.Sin(float64(i))
			}
			o.Apply(u, y) // warm up
			best := time.Duration(1 << 62)
			for r := 0; r < reps; r++ {
				start := time.Now()
				o.Apply(u, y)
				if el := time.Since(start); el < best {
					best = el
				}
			}
			records = append(records, benchRecord{
				M:        m,
				N:        n,
				Backend:  k.String(),
				ApplyMs:  best.Seconds() * 1e3,
				MDoFPerS: float64(n) / best.Seconds() / 1e6,
				SetupMs:  setup.Seconds() * 1e3,
			})
		}
	}
	mach := perfmodel.MeasureMachine()
	doc := struct {
		Schema  string `json:"schema"`
		Workers int    `json:"workers"`
		Reps    int    `json:"reps"`
		Machine struct {
			StreamGBs float64 `json:"stream_gb_per_s"`
			FlopGFs   float64 `json:"flop_gf_per_s"`
		} `json:"machine"`
		Results []benchRecord `json:"results"`
	}{Schema: "BENCH_PR4", Workers: workers, Reps: reps, Results: records}
	doc.Machine.StreamGBs = mach.StreamBW / 1e9
	doc.Machine.FlopGFs = mach.FlopRate / 1e9
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		log.Fatal(err)
	}
}

// vcycleRecord is one smoother configuration's timing in the BENCH_PR7
// schema. SmootherMs times the fine level's pre+post smoothing pair (the
// per-cycle smoother cost the paper's Table IV attributes to the finest
// level); VCycleMs times one whole preconditioner application.
type vcycleRecord struct {
	Config     string  `json:"config"`
	FineKind   string  `json:"fine_kind"`
	SmootherMs float64 `json:"smoother_ms"`
	VCycleMs   float64 `json:"vcycle_ms"`
	SetupMs    float64 `json:"setup_ms"`
}

// runVCycleBench produces BENCH_PR7: fine-smoother and V-cycle times for
// the unblocked-f64 baseline (the configuration every earlier PR
// benchmarked), the cache-blocked f64 wavefront smoother, and the
// cache-blocked float32 hierarchy, plus the Δη=10⁶ outer-iteration parity
// check between the f64 and f32 preconditioners.
func runVCycleBench(m, levels, workers, reps int, gate float64, parityRun bool) {
	eta := func(x, y, z float64) float64 {
		return math.Exp(2 * math.Sin(3*x) * math.Cos(2*y))
	}
	type config struct {
		name    string
		blocked bool
		prec    op.Precision
	}
	configs := []config{
		{"unblocked-f64", false, op.F64},
		{"blocked-f64", true, op.F64},
		{"blocked-f32", true, op.F32},
	}
	var records []vcycleRecord
	for _, c := range configs {
		p := benchProblem(m, workers)
		probs := mg.CoarsenProblems(p, levels, mg.FuncCoeffCoarsener(eta, nil))
		t0 := time.Now()
		mgp, err := mg.Build(probs, mg.Options{
			Kinds:       op.DefaultLevelKinds(levels, op.Tensor),
			SmoothSteps: 2,
			Workers:     workers,
			Blocked:     c.blocked,
			Precision:   c.prec,
		})
		if err != nil {
			log.Fatalf("%s: %v", c.name, err)
		}
		if err := mgp.UseBlockJacobiCoarse(1); err != nil {
			log.Fatalf("%s coarse: %v", c.name, err)
		}
		setup := time.Since(t0)
		lev := mgp.Levels[0]
		if c.blocked && lev.Blocked == nil {
			log.Fatalf("%s: fine level has no blocked smoother", c.name)
		}
		smooth := func(b, x la.Vec, zeroGuess bool) {
			if lev.Blocked != nil {
				lev.Blocked.Smooth(b, x, zeroGuess)
			} else {
				lev.Smoother.Smooth(b, x, zeroGuess)
			}
		}
		n := lev.Op.N()
		b, x, z := la.NewVec(n), la.NewVec(n), la.NewVec(n)
		for i := range b {
			if !lev.Prob.BC.Mask[i] {
				b[i] = math.Sin(float64(i))
			}
		}
		// Fine-level smoother: the pre-smooth (zero guess) + post-smooth
		// (warm guess) pair of one V-cycle visit.
		smooth(b, x, true)
		smooth(b, x, false)
		bestS := time.Duration(1 << 62)
		for r := 0; r < reps; r++ {
			start := time.Now()
			smooth(b, x, true)
			smooth(b, x, false)
			if el := time.Since(start); el < bestS {
				bestS = el
			}
		}
		mgp.Apply(b, z) // warm up
		bestV := time.Duration(1 << 62)
		for r := 0; r < reps; r++ {
			start := time.Now()
			mgp.Apply(b, z)
			if el := time.Since(start); el < bestV {
				bestV = el
			}
		}
		records = append(records, vcycleRecord{
			Config:     c.name,
			FineKind:   lev.Op.Kind().String(),
			SmootherMs: bestS.Seconds() * 1e3,
			VCycleMs:   bestV.Seconds() * 1e3,
			SetupMs:    setup.Seconds() * 1e3,
		})
	}

	// Outer-iteration parity at paper-scale contrast: the f32 hierarchy
	// must not cost extra Krylov iterations.
	const deltaEta = 1e6
	parity := struct {
		DeltaEta     float64 `json:"delta_eta"`
		ItsF64       int     `json:"its_f64"`
		ItsF32       int     `json:"its_f32"`
		ConvergedF64 bool    `json:"converged_f64"`
		ConvergedF32 bool    `json:"converged_f32"`
	}{DeltaEta: deltaEta}
	if parityRun {
		parity.ItsF64, parity.ConvergedF64 = contrastSolve(workers, false, op.F64)
		parity.ItsF32, parity.ConvergedF32 = contrastSolve(workers, true, op.F32)
	}

	doc := struct {
		Schema             string         `json:"schema"`
		M                  int            `json:"m"`
		Levels             int            `json:"levels"`
		Workers            int            `json:"workers"`
		Reps               int            `json:"reps"`
		Results            []vcycleRecord `json:"results"`
		SmootherSpeedupF64 float64        `json:"smoother_speedup_blocked_f64"`
		SmootherSpeedupF32 float64        `json:"smoother_speedup_blocked_f32"`
		VCycleSpeedupF32   float64        `json:"vcycle_speedup_blocked_f32"`
		Parity             interface{}    `json:"contrast_parity"`
	}{Schema: "BENCH_PR7", M: m, Levels: levels, Workers: workers, Reps: reps,
		Results: records, Parity: parity}
	doc.SmootherSpeedupF64 = records[0].SmootherMs / records[1].SmootherMs
	doc.SmootherSpeedupF32 = records[0].SmootherMs / records[2].SmootherMs
	doc.VCycleSpeedupF32 = records[0].VCycleMs / records[2].VCycleMs
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		log.Fatal(err)
	}
	if gate > 0 && doc.SmootherSpeedupF64 < gate {
		log.Fatalf("blocked-f64 smoother speedup %.2fx below the %.2fx regression gate (unblocked %.2fms, blocked %.2fms)",
			doc.SmootherSpeedupF64, gate, records[0].SmootherMs, records[1].SmootherMs)
	}
}

// contrastSolve runs the Δη=10⁶ sinker Stokes solve (a dense unit-
// viscosity sphere in a 10⁻⁶-viscosity ambient fluid under gravity,
// free-slip box, free surface on top) with the given preconditioner
// configuration and reports the outer FGMRES iteration count. The
// coefficients go through the vertex-grid projection pipeline like the
// material-point path, so multigrid stays robust at this contrast. The
// grid is fixed at 8³ — parity, not throughput, is what it measures.
func contrastSolve(workers int, blocked bool, prec op.Precision) (its int, converged bool) {
	const (
		m    = 8
		deta = 1e6
		rad  = 0.22
	)
	inside := func(x, y, z float64) bool {
		dx, dy, dz := x-0.5, y-0.5, z-0.55
		return dx*dx+dy*dy+dz*dz < rad*rad
	}
	eta := func(x, y, z float64) float64 {
		if inside(x, y, z) {
			return 1
		}
		return 1 / deta
	}
	rho := func(x, y, z float64) float64 {
		if inside(x, y, z) {
			return 1.2
		}
		return 1
	}
	da := mesh.New(m, m, m, 0, 1, 0, 1, 0, 1)
	bc := mesh.NewBC(da)
	bc.FreeSlipBox(da, mesh.XMin, mesh.XMax, mesh.YMin, mesh.YMax, mesh.ZMin)
	p := fem.NewProblem(da, bc)
	p.Workers = workers
	p.Gravity = [3]float64{0, 0, -9.8}
	etaV := fem.VertexFieldFromFunc(da, eta)
	rhoV := fem.VertexFieldFromFunc(da, rho)
	p.SetCoefficientsVertex(etaV, rhoV)

	cfg := stokes.DefaultConfig()
	cfg.Workers = workers
	cfg.OuterMethod = "fgmres"
	cfg.Params.RTol = 1e-5
	cfg.Params.MaxIt = 1000
	// High-contrast sinkers need a long flexible basis; the default
	// restart of 50 stalls FGMRES near Δη=10⁶ in either precision.
	cfg.Params.Restart = 200
	cfg.CoeffCoarsen = mg.VertexCoeffCoarsener(da, etaV, rhoV)
	cfg.Blocked = blocked
	cfg.Precision = prec
	s, err := stokes.New(p, cfg)
	if err != nil {
		log.Fatal(err)
	}
	bu := la.NewVec(p.DA.NVelDOF())
	fem.MomentumRHS(p, bu)
	x := la.NewVec(s.Op.N())
	res := s.Solve(x, bu, nil)
	return res.Iterations, res.Converged
}
