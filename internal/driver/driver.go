// Package driver is the shared engine behind the scenario binaries:
// compile a scenario spec into a model, apply the CLI solver overrides,
// select the Stokes backend (shared-memory or rank-distributed), run
// the time loop with per-step reporting, checkpoint/restart, and
// optionally emit a machine-readable end-to-end step-time record. The
// ptatin-run driver is a thin flag layer over this package, and the
// legacy ptatin-sinker/ptatin-rift binaries reuse the same loop.
package driver

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"

	"ptatin3d/internal/cli"
	"ptatin3d/internal/model"
	"ptatin3d/internal/op"
	"ptatin3d/internal/scenario"
	"ptatin3d/internal/stokes"
	"ptatin3d/internal/telemetry"
)

// Overrides are the CLI-level solver substitutions applied on top of a
// compiled model (empty/zero values leave the spec's choice in place).
type Overrides struct {
	Op        string // fine-level operator representation
	Precision string // V-cycle precision ("f64"/"f32")
	Restart   int    // FGMRES restart window (stokes.Config.Restart)
}

// Apply mutates the model's solver configuration in place.
func (o Overrides) Apply(m *model.Model) error {
	if o.Op != "" {
		k, err := op.ParseKind(o.Op)
		if err != nil {
			return err
		}
		m.Cfg.FineKind = k
	}
	if o.Precision != "" {
		pr, err := op.ParsePrecision(o.Precision)
		if err != nil {
			return err
		}
		m.Cfg.Precision = pr
	}
	if o.Restart > 0 {
		m.Cfg.Restart = o.Restart
	}
	return nil
}

// Backend builds the Stokes backend for a -ranks flag value: "" or
// "1x1x1" selects the shared-memory path, anything else a
// DistributedBackend over the simulated fabric.
func Backend(ranks string, pipelined bool, coarseRoots int) (model.StokesBackend, error) {
	if ranks == "" {
		return nil, nil
	}
	px, py, pz, err := cli.ParseRanks(ranks)
	if err != nil {
		return nil, err
	}
	if px*py*pz == 1 {
		return nil, nil
	}
	return model.NewDistributedBackend(px, py, pz, stokes.DistOptions{
		Pipelined:   pipelined,
		CoarseRoots: coarseRoots,
	}), nil
}

// Config controls one Run.
type Config struct {
	Steps           int
	CheckpointEvery int
	CheckpointPath  string
	RestartFrom     string
	// Out receives the per-step CSV (default os.Stdout; io.Discard
	// silences it).
	Out io.Writer
	// JSONOut, when non-nil, receives the end-to-end StepRecord JSON
	// after the loop (the scripts/bench.sh hook).
	JSONOut io.Writer
	// Scenario labels the JSON record.
	Scenario string
}

// StepRecord is one step of the machine-readable run record.
type StepRecord struct {
	Step       int     `json:"step"`
	Dt         float64 `json:"dt"`
	NewtonIts  int     `json:"newton_its"`
	KrylovIts  int     `json:"krylov_its"`
	Converged  bool    `json:"converged"`
	Points     int     `json:"points"`
	WallS      float64 `json:"wall_s"`
	Backend    string  `json:"backend"`
	Ranks      int     `json:"ranks,omitempty"`
	HaloMsgs   int64   `json:"halo_msgs,omitempty"`
	HaloBytes  int64   `json:"halo_bytes,omitempty"`
	AllReduces int64   `json:"allreduces,omitempty"`
	// Per-stage wall seconds of the step pipeline, and the count of
	// relinearizations that reused the cached Stokes setup.
	RheologyS         float64 `json:"rheology_s"`
	MPMProjectS       float64 `json:"mpm_project_s"`
	StokesSetupS      float64 `json:"stokes_setup_s"`
	StokesKrylovS     float64 `json:"stokes_krylov_s"`
	AdvectS           float64 `json:"advect_s"`
	ALES              float64 `json:"ale_s"`
	ThermalS          float64 `json:"thermal_s"`
	StokesSetupReused int64   `json:"stokes_setup_reused"`
}

// RunRecord is the end-to-end JSON emitted on JSONOut.
type RunRecord struct {
	Scenario   string       `json:"scenario"`
	Backend    string       `json:"backend"`
	Ranks      int          `json:"ranks,omitempty"`
	Workers    int          `json:"workers"`
	Resolution [3]int       `json:"resolution"`
	Steps      []StepRecord `json:"steps"`
	TotalWallS float64      `json:"total_wall_s"`
	AvgStepS   float64      `json:"avg_step_s"`
}

// Run advances the model Config.Steps steps with per-step reporting,
// periodic checkpointing and optional restart. The model's Backend must
// already be installed.
func Run(m *model.Model, cfg Config) error {
	out := cfg.Out
	if out == nil {
		out = os.Stdout
	}
	if cfg.RestartFrom != "" {
		if err := m.LoadCheckpoint(cfg.RestartFrom); err != nil {
			return fmt.Errorf("restart: %w", err)
		}
		fmt.Fprintf(out, "# restarted from %s at step %d, t=%.5f\n", cfg.RestartFrom, m.StepNum, m.Time)
	}
	backendName := "shared"
	ranks := 0
	if m.Backend != nil {
		backendName = m.Backend.Name()
		if db, ok := m.Backend.(*model.DistributedBackend); ok {
			ranks = db.Ranks()
		}
	}
	fmt.Fprintln(out, "# columns: step, time, dt, newton_its, krylov_its, |F|0, |F|, converged, topo_min, topo_max, points, backend, halo_msgs, wall_s")
	var recs []StepRecord
	runStart := time.Now()
	for s := 0; s < cfg.Steps; s++ {
		stepStart := time.Now()
		if err := m.StepForward(); err != nil {
			return fmt.Errorf("step %d: %w", m.StepNum+1, err)
		}
		st := m.Stats[len(m.Stats)-1]
		wall := time.Since(stepStart).Seconds()
		fmt.Fprintf(out, "%d, %.5f, %.5f, %d, %d, %.3e, %.3e, %v, %.4f, %.4f, %d, %s, %d, %.2f\n",
			st.Step, st.Time, st.Dt, st.NewtonIts, st.KrylovIts,
			st.FNorm0, st.FNorm, st.Converged, st.TopoMin, st.TopoMax,
			st.PointCount, st.Backend, st.HaloMsgs, wall)
		recs = append(recs, StepRecord{
			Step: st.Step, Dt: st.Dt,
			NewtonIts: st.NewtonIts, KrylovIts: st.KrylovIts,
			Converged: st.Converged, Points: st.PointCount,
			WallS:   wall,
			Backend: st.Backend, Ranks: st.Ranks,
			HaloMsgs: st.HaloMsgs, HaloBytes: st.HaloBytes, AllReduces: st.AllReduces,
			RheologyS:         st.RheologyTime.Seconds(),
			MPMProjectS:       st.ProjectTime.Seconds(),
			StokesSetupS:      st.StokesSetupTime.Seconds(),
			StokesKrylovS:     st.StokesKrylovTime.Seconds(),
			AdvectS:           st.AdvectTime.Seconds(),
			ALES:              st.ALETime.Seconds(),
			ThermalS:          st.ThermalTime.Seconds(),
			StokesSetupReused: st.StokesSetupReused,
		})
		if cfg.CheckpointEvery > 0 && m.StepNum%cfg.CheckpointEvery == 0 {
			path := cfg.CheckpointPath
			if path == "" {
				path = "ptatin.chkpt"
			}
			if err := m.SaveCheckpoint(path); err != nil {
				return fmt.Errorf("checkpoint: %w", err)
			}
			fmt.Fprintf(out, "# checkpointed step %d to %s\n", m.StepNum, path)
		}
	}
	if cfg.JSONOut != nil {
		total := time.Since(runStart).Seconds()
		rec := RunRecord{
			Scenario: cfg.Scenario, Backend: backendName, Ranks: ranks,
			Workers:    m.Workers,
			Resolution: [3]int{m.Prob.DA.Mx, m.Prob.DA.My, m.Prob.DA.Mz},
			Steps:      recs, TotalWallS: total,
		}
		if len(recs) > 0 {
			rec.AvgStepS = total / float64(len(recs))
		}
		enc := json.NewEncoder(cfg.JSONOut)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rec); err != nil {
			return err
		}
	}
	return nil
}

// Smoke compiles every registered scenario at its small resolution and
// runs it for two steps on the shared backend and (when the small
// resolution admits the rank grid on every level) on the distributed
// backend at 2×1×1 — the check.sh scenario-smoke gate. Progress goes to
// out; the first failure is returned.
func Smoke(workers int, out io.Writer) error {
	if out == nil {
		out = os.Stdout
	}
	for _, name := range scenario.Names() {
		spec, err := scenario.Get(name)
		if err != nil {
			return err
		}
		spec.Resolution = spec.SmallResolution()
		for _, mode := range []string{"shared", "distributed"} {
			m, err := scenario.Compile(spec, workers)
			if err != nil {
				return fmt.Errorf("smoke %s: compile: %w", name, err)
			}
			m.Telemetry = telemetry.New().Root().Child("model")
			if mode == "distributed" {
				m.Backend = model.NewDistributedBackend(2, 1, 1, stokes.DistOptions{})
			}
			start := time.Now()
			if err := Run(m, Config{Steps: 2, Out: io.Discard}); err != nil {
				return fmt.Errorf("smoke %s (%s): %w", name, mode, err)
			}
			st := m.Stats[len(m.Stats)-1]
			fmt.Fprintf(out, "smoke %-16s %-11s ok: 2 steps, krylov_its=%d+%d, %.1fs\n",
				name, mode, m.Stats[0].KrylovIts, st.KrylovIts, time.Since(start).Seconds())
		}
	}
	return nil
}
