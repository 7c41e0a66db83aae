// Command ptatin-sinker is a thin wrapper over the "sinker" scenario
// (see cmd/ptatin-run for the general driver). It keeps the two
// figure-reproduction modes that are specific to the sedimentation
// benchmark of §IV-A:
//
//	-fig2         run the robustness study: for each Δη, solve the Stokes
//	              problem with GCR + the lower-triangular field-split
//	              preconditioner and print the per-iteration vertical
//	              momentum and pressure residual norms (CSV on stdout).
//	-streamlines  solve once and write fig1_grid.vtk / fig1_points.vtk /
//	              fig1_streamlines.vtk (the Figure 1 visualization).
//	-steps N      advance N time steps (same loop as ptatin-run).
//
// Deprecated for plain time stepping: prefer
//
//	ptatin-run -scenario sinker -res M -steps N
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"ptatin3d/internal/cli"
	"ptatin3d/internal/driver"
	"ptatin3d/internal/fem"
	"ptatin3d/internal/la"
	"ptatin3d/internal/model"
	"ptatin3d/internal/par"
	"ptatin3d/internal/scenario"
	"ptatin3d/internal/stokes"
	"ptatin3d/internal/telemetry"
)

func main() {
	m := flag.Int("m", 8, "elements per direction (paper: 64)")
	nc := flag.Int("nc", 8, "number of spheres")
	rc := flag.Float64("rc", 0.1, "sphere radius")
	workers := flag.Int("workers", 0, "worker goroutines (0 = runtime.NumCPU())")
	opFlag := flag.String("op", "", "fine-level operator representation (mf|mfc|mfref|asm|galerkin); coarse levels use the fixed asm/galerkin layout")
	precFlag := flag.String("precision", "", "V-cycle preconditioner precision (f64|f32); the outer Krylov method always iterates in f64")
	fig2 := flag.Bool("fig2", false, "run the Δη robustness study (Figure 2)")
	stream := flag.Bool("streamlines", false, "write Figure 1 VTK outputs")
	steps := flag.Int("steps", 0, "time steps to advance")
	outdir := flag.String("outdir", ".", "output directory")
	telFlag := flag.Bool("telemetry", false, "emit the telemetry table + JSON on stderr after the run")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	ckptEvery := flag.Int("checkpoint-every", 0, "write a checkpoint every N steps (0 disables)")
	ckptPath := flag.String("checkpoint", "sinker.chkpt", "checkpoint file path")
	restartFrom := flag.String("restart-from", "", "restore model state from this checkpoint before stepping")
	flag.Parse()
	*workers = cli.Workers(*workers)

	if *cpuprofile != "" {
		stop, err := telemetry.StartCPUProfile(*cpuprofile)
		if err != nil {
			log.Fatal(err)
		}
		defer stop()
	}
	var reg *telemetry.Registry
	if *telFlag {
		reg = telemetry.New()
		par.SetTelemetry(reg.Root().Child("par"))
		defer par.SetTelemetry(nil)
		fem.SetTelemetry(reg.Root().Child("fem"))
		defer fem.SetTelemetry(nil)
		// Table + JSON go to stderr so the CSV/step output stays clean.
		defer func() {
			fmt.Fprintln(os.Stderr, "\n# Telemetry breakdown")
			reg.WriteTable(os.Stderr)
			fmt.Fprintln(os.Stderr, "\n# Telemetry (JSON)")
			if err := reg.WriteJSON(os.Stderr); err != nil {
				log.Fatal(err)
			}
		}()
	}

	ov := driver.Overrides{Op: *opFlag, Precision: *precFlag}
	if *fig2 {
		runFig2(*m, *nc, *rc, *workers, ov, reg)
		return
	}

	o := scenario.DefaultSinkerOptions()
	o.M = *m
	o.Nc = *nc
	o.Rc = *rc
	o.Workers = *workers
	mdl := scenario.NewSinker(o)
	if err := ov.Apply(mdl); err != nil {
		log.Fatal(err)
	}
	if reg != nil {
		mdl.Telemetry = reg.Root().Child("model")
	}

	if *stream {
		if *restartFrom != "" {
			if err := mdl.LoadCheckpoint(*restartFrom); err != nil {
				log.Fatal(err)
			}
		}
		if _, err := mdl.SolveStokes(); err != nil {
			log.Fatal(err)
		}
		must(mdl.WriteVTK(*outdir + "/fig1_grid.vtk"))
		must(mdl.WritePointsVTK(*outdir + "/fig1_points.vtk"))
		var seeds [][3]float64
		for i := 0; i < 5; i++ {
			for j := 0; j < 5; j++ {
				seeds = append(seeds, [3]float64{0.1 + 0.2*float64(i), 0.1 + 0.2*float64(j), 0.9})
			}
		}
		must(mdl.WriteStreamlinesVTK(*outdir+"/fig1_streamlines.vtk", seeds, 0.02, 400))
		fmt.Println("wrote fig1_grid.vtk, fig1_points.vtk, fig1_streamlines.vtk")
		return
	}

	if err := driver.Run(mdl, driver.Config{
		Steps:           *steps,
		CheckpointEvery: *ckptEvery,
		CheckpointPath:  *ckptPath,
		RestartFrom:     *restartFrom,
		Scenario:        "sinker",
	}); err != nil {
		log.Fatal(err)
	}
}

// runFig2 reproduces Figure 2: residual equilibration and convergence as
// a function of the viscosity contrast.
func runFig2(m, nc int, rc float64, workers int, ov driver.Overrides, reg *telemetry.Registry) {
	fmt.Println("# Figure 2 reproduction: vertical momentum vs pressure residual")
	fmt.Println("# columns: delta_eta, iteration, momentum_resid, vertical_resid, pressure_resid")
	for _, deta := range []float64{1, 1e2, 1e4} {
		o := scenario.DefaultSinkerOptions()
		o.M = m
		o.Nc = nc
		o.Rc = rc
		o.DeltaEta = deta
		o.Workers = workers
		mdl := scenario.NewSinker(o)
		if err := ov.Apply(mdl); err != nil {
			log.Fatal(err)
		}
		// Use the model's projected coefficients (the MPM pipeline).
		mdl.UpdateCoefficients(la.NewVec(mdl.Prob.DA.NVelDOF()+mdl.Prob.DA.NPresDOF()), false)
		cfg := mdl.Cfg
		cfg.Params.MaxIt = 1000
		if reg != nil {
			cfg.Telemetry = reg.Root().Child(fmt.Sprintf("deta%g", deta))
		}

		s, err := stokes.New(mdl.Prob, withModelCoarsener(mdl, cfg))
		if err != nil {
			log.Fatal(err)
		}
		bu := la.NewVec(mdl.Prob.DA.NVelDOF())
		fem.MomentumRHS(mdl.Prob, bu)
		x := la.NewVec(s.Op.N())
		mon := &stokes.Monitor{}
		res := s.Solve(x, bu, mon)
		for i := range mon.Iter {
			fmt.Printf("%g, %d, %.6e, %.6e, %.6e\n",
				deta, mon.Iter[i], mon.Momentum[i], mon.Vertical[i], mon.Pressure[i])
		}
		fmt.Fprintf(os.Stderr, "delta_eta=%g: converged=%v iterations=%d rel=%.2e\n",
			deta, res.Converged, res.Iterations, res.Residual/res.Residual0)
	}
}

// withModelCoarsener installs the model's projected vertex fields as the
// multigrid coefficient coarsener.
func withModelCoarsener(m *model.Model, cfg stokes.Config) stokes.Config {
	cfg.CoeffCoarsen = m.CoeffCoarsener()
	return cfg
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
