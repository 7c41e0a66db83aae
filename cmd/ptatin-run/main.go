// Command ptatin-run is the unified scenario driver: it resolves a
// scenario by registered name or JSON spec file, compiles it into a
// model, installs the requested Stokes backend (shared-memory or
// rank-distributed over the simulated fabric), and advances the time
// loop with per-step reporting, checkpoint/restart and optional JSON
// bench records.
//
//	ptatin-run -list                                  # registered scenarios
//	ptatin-run -scenario sinker -steps 3
//	ptatin-run -scenario rift -ranks 2x1x2 -steps 5
//	ptatin-run -scenario my-spec.json -op mfc -json run.json
//	ptatin-run -smoke                                 # 2-step smoke of every
//	                                                  # scenario, both backends
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"

	"ptatin3d/internal/cli"
	"ptatin3d/internal/driver"
	"ptatin3d/internal/fem"
	"ptatin3d/internal/model"
	"ptatin3d/internal/par"
	"ptatin3d/internal/scenario"
	"ptatin3d/internal/telemetry"
)

func main() {
	name := flag.String("scenario", "", "registered scenario name or path to a JSON spec file")
	list := flag.Bool("list", false, "list registered scenarios and exit")
	printSpec := flag.Bool("print-spec", false, "print the resolved spec as JSON and exit (a template for custom spec files)")
	smoke := flag.Bool("smoke", false, "compile every registered scenario at small resolution and run 2 steps on both backends")
	steps := flag.Int("steps", 1, "time steps to advance")
	res := flag.String("res", "", "override resolution as mx,my,mz (or a single m for m,m,m)")
	small := flag.Bool("small", false, "use the scenario's small smoke-test resolution")
	ppe := flag.Int("ppe", 0, "material points per element per direction (0 = spec value)")
	workers := flag.Int("workers", 0, "worker goroutines (0 = runtime.NumCPU())")
	ranks := flag.String("ranks", "", "simulated rank grid PxxPyxPz; empty or 1x1x1 = shared-memory backend")
	pipelined := flag.Bool("pipelined", false, "pipelined Krylov on the distributed backend")
	coarseRoots := flag.Int("coarse-roots", 0, "coarse-grid agglomeration roots on the distributed backend")
	opFlag := flag.String("op", "", "fine-level operator representation (mf|mfc|mfref|asm|galerkin); coarse levels use the fixed asm/galerkin layout")
	precFlag := flag.String("precision", "", "V-cycle preconditioner precision (f64|f32)")
	restart := flag.Int("restart", 0, "FGMRES restart window override (0 = spec/default; high viscosity contrast wants >=200)")
	ckptEvery := flag.Int("checkpoint-every", 0, "write a checkpoint every N steps (0 disables)")
	ckptPath := flag.String("checkpoint", "ptatin.chkpt", "checkpoint file path")
	restartFrom := flag.String("restart-from", "", "restore model state from this checkpoint before stepping")
	telFlag := flag.Bool("telemetry", false, "emit the telemetry table + JSON on stderr after the run")
	jsonOut := flag.String("json", "", "write the end-to-end run record as JSON to this file (- for stdout)")
	flag.Parse()
	*workers = cli.Workers(*workers)

	if *list {
		for _, n := range scenario.Names() {
			s, _ := scenario.Get(n)
			fmt.Printf("%-16s %s\n", n, s.Description)
		}
		return
	}
	if *smoke {
		if err := driver.Smoke(*workers, os.Stdout); err != nil {
			log.Fatal(err)
		}
		return
	}
	if *name == "" {
		fmt.Fprintln(os.Stderr, "ptatin-run: -scenario required (try -list)")
		os.Exit(2)
	}

	spec, err := scenario.Resolve(*name)
	if err != nil {
		log.Fatal(err)
	}
	if *small {
		spec.Resolution = spec.SmallResolution()
	}
	if *res != "" {
		dims, err := cli.ParseInts(*res)
		if err != nil {
			log.Fatal(err)
		}
		switch len(dims) {
		case 1:
			spec.Resolution = [3]int{dims[0], dims[0], dims[0]}
		case 3:
			spec.Resolution = [3]int{dims[0], dims[1], dims[2]}
		default:
			log.Fatalf("-res wants m or mx,my,mz, got %q", *res)
		}
		spec.Solver.Levels = 0 // re-derive the hierarchy depth
	}
	if *ppe > 0 {
		spec.PPE = *ppe
	}
	if *printSpec {
		b, err := json.MarshalIndent(spec, "", "  ")
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(string(b))
		return
	}

	var reg *telemetry.Registry
	if *telFlag {
		reg = telemetry.New()
		par.SetTelemetry(reg.Root().Child("par"))
		defer par.SetTelemetry(nil)
		fem.SetTelemetry(reg.Root().Child("fem"))
		defer fem.SetTelemetry(nil)
		defer func() {
			fmt.Fprintln(os.Stderr, "\n# Telemetry breakdown")
			reg.WriteTable(os.Stderr)
			fmt.Fprintln(os.Stderr, "\n# Telemetry (JSON)")
			if err := reg.WriteJSON(os.Stderr); err != nil {
				log.Fatal(err)
			}
		}()
	}

	m, err := scenario.Compile(spec, *workers)
	if err != nil {
		log.Fatal(err)
	}
	if reg != nil {
		m.Telemetry = reg.Root().Child("model")
	}
	ov := driver.Overrides{Op: *opFlag, Precision: *precFlag, Restart: *restart}
	if err := ov.Apply(m); err != nil {
		log.Fatal(err)
	}
	backend, err := driver.Backend(*ranks, *pipelined, *coarseRoots)
	if err != nil {
		log.Fatal(err)
	}
	m.Backend = backend
	if db, ok := backend.(*model.DistributedBackend); ok {
		fmt.Printf("# scenario %s: distributed backend over %d simulated ranks\n", spec.Name, db.Ranks())
	}

	cfg := driver.Config{
		Steps:           *steps,
		CheckpointEvery: *ckptEvery,
		CheckpointPath:  *ckptPath,
		RestartFrom:     *restartFrom,
		Scenario:        spec.Name,
	}
	var jsonFile *os.File
	if *jsonOut == "-" {
		cfg.JSONOut = os.Stdout
	} else if *jsonOut != "" {
		jsonFile, err = os.Create(*jsonOut)
		if err != nil {
			log.Fatal(err)
		}
		cfg.JSONOut = jsonFile
	}
	if err := driver.Run(m, cfg); err != nil {
		log.Fatal(err)
	}
	if jsonFile != nil {
		if err := jsonFile.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("# wrote run record to %s\n", *jsonOut)
	}
}
