package model_test

import (
	"testing"

	"ptatin3d/internal/telemetry"
)

// TestOuterProbesFireInTimeLoop checks that the time loop's inner Krylov
// solves run through the solver's outer probes: after one step the
// stokes/outer pcapply timer counts one preconditioner application per
// Krylov iteration of the step, and the matmult timer is live.
func TestOuterProbesFireInTimeLoop(t *testing.T) {
	m := compileSmall(t, "sinker", 2)
	m.Telemetry = telemetry.New().Root()
	if err := m.StepForward(); err != nil {
		t.Fatal(err)
	}
	outer := m.Telemetry.Child("stokes").Child("outer")
	its := m.Stats[len(m.Stats)-1].KrylovIts
	if pc := outer.Timer("pcapply").Calls(); pc != int64(its) {
		t.Errorf("outer.pcapply calls = %d; want the step's %d Krylov iterations", pc, its)
	}
	if mm := outer.Timer("matmult").Calls(); mm <= 0 {
		t.Errorf("outer.matmult calls = %d; want > 0", mm)
	}
}
