package model_test

import (
	"io"
	"testing"

	"ptatin3d/internal/driver"
	"ptatin3d/internal/model"
	"ptatin3d/internal/scenario"
	"ptatin3d/internal/stokes"
)

func compileSmall(t *testing.T, name string, workers int) *model.Model {
	t.Helper()
	spec, err := scenario.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	spec.Resolution = spec.SmallResolution()
	m, err := scenario.Compile(spec, workers)
	if err != nil {
		t.Fatalf("compile %s: %v", name, err)
	}
	return m
}

func runSteps(t *testing.T, m *model.Model, steps int) {
	t.Helper()
	if err := driver.Run(m, driver.Config{Steps: steps, Out: io.Discard}); err != nil {
		t.Fatal(err)
	}
}

// TestCachedSetupMatchesColdBuild is the tentpole's bit-identity gate:
// running the time loop with the amortized solver setup (refresh the
// cached stack on every relinearization) must reproduce the cold-build
// trajectory bit for bit — same state vector, same Newton/Krylov counts,
// same residual norms — over multiple steps of both model problems on
// both backends, including the ALE geometry invalidation of the rift's
// free surface. Short mode runs 2 steps instead of 3, which still covers
// a refresh after the rift's ALE invalidation on both backends and keeps
// the -short -race pass within the default test timeout.
func TestCachedSetupMatchesColdBuild(t *testing.T) {
	steps := 3
	if testing.Short() {
		steps = 2
	}
	for _, name := range []string{"sinker", "rift"} {
		for _, mode := range []string{"shared", "distributed"} {
			t.Run(name+"/"+mode, func(t *testing.T) {
				cold := compileSmall(t, name, 2)
				warm := compileSmall(t, name, 2)
				cold.DisableSetupCache = true
				if mode == "distributed" {
					cold.Backend = model.NewDistributedBackend(2, 1, 1, stokes.DistOptions{})
					warm.Backend = model.NewDistributedBackend(2, 1, 1, stokes.DistOptions{})
				}
				runSteps(t, cold, steps)
				runSteps(t, warm, steps)
				if len(cold.X) != len(warm.X) {
					t.Fatalf("state length %d vs %d", len(cold.X), len(warm.X))
				}
				for i := range cold.X {
					if cold.X[i] != warm.X[i] {
						t.Fatalf("state[%d]: cold %x vs cached %x", i, cold.X[i], warm.X[i])
					}
				}
				var reused int64
				for s := 0; s < steps; s++ {
					c, w := cold.Stats[s], warm.Stats[s]
					if c.NewtonIts != w.NewtonIts || c.KrylovIts != w.KrylovIts {
						t.Fatalf("step %d: iterations (%d,%d) cold vs (%d,%d) cached",
							s+1, c.NewtonIts, c.KrylovIts, w.NewtonIts, w.KrylovIts)
					}
					if c.FNorm0 != w.FNorm0 || c.FNorm != w.FNorm {
						t.Fatalf("step %d: residuals (%x,%x) cold vs (%x,%x) cached",
							s+1, c.FNorm0, c.FNorm, w.FNorm0, w.FNorm)
					}
					if c.Dt != w.Dt || c.PointCount != w.PointCount {
						t.Fatalf("step %d: dt/points (%x,%d) cold vs (%x,%d) cached",
							s+1, c.Dt, c.PointCount, w.Dt, w.PointCount)
					}
					if c.StokesSetupReused != 0 {
						t.Fatalf("step %d: cold path reports %d reuses", s+1, c.StokesSetupReused)
					}
					reused += w.StokesSetupReused
				}
				if reused == 0 {
					t.Fatal("cached path never reused the solver setup")
				}
			})
		}
	}
}

// TestKrylovWarmStart pins that successive Stokes solves continue from
// the previous solution in place: solving again without perturbing the
// material state starts at the converged residual (no re-zeroing of the
// state) and does not reallocate m.X.
func TestKrylovWarmStart(t *testing.T) {
	m := compileSmall(t, "sinker", 2)
	res1, err := m.SolveStokes()
	if err != nil {
		t.Fatal(err)
	}
	p0 := &m.X[0]
	res2, err := m.SolveStokes()
	if err != nil {
		t.Fatal(err)
	}
	if &m.X[0] != p0 {
		t.Fatal("m.X was reallocated between solves; warm start lost")
	}
	if res2.FNorm0 != res1.FNorm {
		t.Fatalf("second solve started at |F|=%x, want previous final %x", res2.FNorm0, res1.FNorm)
	}
	if res2.KrylovIts > res1.KrylovIts {
		t.Fatalf("warm-started solve used more Krylov iterations (%d) than the first (%d)",
			res2.KrylovIts, res1.KrylovIts)
	}
}
