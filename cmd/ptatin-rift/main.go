// Command ptatin-rift is a thin wrapper over the "rift" scenario (see
// cmd/ptatin-run for the general driver). It keeps the flags specific
// to the continental rifting study of paper §V:
//
//	-oblique    apply boundary condition (ii): 0.1 cm/yr z-shortening.
//	-weak ETA   lower-crust viscosity (nondimensional; weak ≈ 0.01–0.05
//	            favours wide/oblique margins, strong ≈ 0.5 favours ridge
//	            jumps — the paper's §V conclusion).
//	-snapshot   write fig3_grid.vtk / fig3_points.vtk after the run
//	            (the Figure 3 visualization: lithology + damage zone).
//
// Deprecated for plain time stepping: prefer
//
//	ptatin-run -scenario rift -steps N
package main

import (
	"flag"
	"fmt"
	"log"

	"ptatin3d/internal/cli"
	"ptatin3d/internal/driver"
	"ptatin3d/internal/scenario"
)

func main() {
	mx := flag.Int("mx", 32, "elements in x (paper: 256)")
	my := flag.Int("my", 8, "elements in y (paper: 32)")
	mz := flag.Int("mz", 16, "elements in z (paper: 128)")
	steps := flag.Int("steps", 5, "time steps (paper: 1500-2000)")
	workers := flag.Int("workers", 0, "worker goroutines (0 = runtime.NumCPU())")
	opFlag := flag.String("op", "", "fine-level operator representation (mf|mfc|mfref|asm|galerkin); coarse levels use the fixed asm/galerkin layout")
	precFlag := flag.String("precision", "", "V-cycle preconditioner precision (f64|f32); the outer Krylov method always iterates in f64")
	oblique := flag.Bool("oblique", false, "apply z-shortening (BC variant ii)")
	weak := flag.Float64("weak", 0.05, "lower-crust viscosity (nondim)")
	snapshot := flag.Bool("snapshot", false, "write Figure 3 VTK output")
	outdir := flag.String("outdir", ".", "output directory")
	ckptEvery := flag.Int("checkpoint-every", 0, "write a checkpoint every N steps (0 disables)")
	ckptPath := flag.String("checkpoint", "rift.chkpt", "checkpoint file path")
	restartFrom := flag.String("restart-from", "", "restore model state from this checkpoint before stepping")
	flag.Parse()
	*workers = cli.Workers(*workers)

	o := scenario.DefaultRiftOptions()
	o.Mx, o.My, o.Mz = *mx, *my, *mz
	o.Workers = *workers
	o.WeakCrustEta = *weak
	if *oblique {
		o.ObliqueShortening = 0.1
	}
	m := scenario.NewRift(o)
	ov := driver.Overrides{Op: *opFlag, Precision: *precFlag}
	if err := ov.Apply(m); err != nil {
		log.Fatal(err)
	}

	fmt.Println("# Figure 4 reproduction: nonlinear solver behaviour per time step")
	if err := driver.Run(m, driver.Config{
		Steps:           *steps,
		CheckpointEvery: *ckptEvery,
		CheckpointPath:  *ckptPath,
		RestartFrom:     *restartFrom,
		Scenario:        "rift",
	}); err != nil {
		log.Fatal(err)
	}

	if *snapshot {
		must(m.WriteVTK(*outdir + "/fig3_grid.vtk"))
		must(m.WritePointsVTK(*outdir + "/fig3_points.vtk"))
		fmt.Println("# wrote fig3_grid.vtk, fig3_points.vtk")
	}
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
