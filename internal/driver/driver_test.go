package driver

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"

	"ptatin3d/internal/model"
	"ptatin3d/internal/op"
	"ptatin3d/internal/scenario"
)

func smallSinker(t *testing.T, workers int) *model.Model {
	t.Helper()
	spec, err := scenario.Get("sinker")
	if err != nil {
		t.Fatal(err)
	}
	spec.Resolution = spec.SmallResolution()
	m, err := scenario.Compile(spec, workers)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestOverridesApply: flag-level substitutions land on the compiled
// model's solver config, and bad values are rejected.
func TestOverridesApply(t *testing.T) {
	m := smallSinker(t, 1)
	ov := Overrides{Op: "asm", Precision: "f32", Restart: 123}
	if err := ov.Apply(m); err != nil {
		t.Fatal(err)
	}
	if m.Cfg.FineKind != op.Assembled || m.Cfg.Precision != op.F32 || m.Cfg.Restart != 123 {
		t.Fatalf("overrides not applied: %+v", m.Cfg)
	}
	if err := (Overrides{Op: "nope"}).Apply(m); err == nil {
		t.Fatal("bad -op value accepted")
	}
	if err := (Overrides{Precision: "f16"}).Apply(m); err == nil {
		t.Fatal("bad -precision value accepted")
	}
}

// TestBackendSelection: the -ranks flag maps to the right backend.
func TestBackendSelection(t *testing.T) {
	if b, err := Backend("", false, 0); err != nil || b != nil {
		t.Fatalf("empty ranks: backend %v err %v, want shared (nil)", b, err)
	}
	if b, err := Backend("1x1x1", false, 0); err != nil || b != nil {
		t.Fatalf("1x1x1: backend %v err %v, want shared (nil)", b, err)
	}
	b, err := Backend("2x1x2", true, 0)
	if err != nil {
		t.Fatal(err)
	}
	db, ok := b.(*model.DistributedBackend)
	if !ok || db.Ranks() != 4 {
		t.Fatalf("2x1x2: got %T with %d ranks", b, db.Ranks())
	}
	if _, err := Backend("2x", false, 0); err == nil {
		t.Fatal("malformed ranks accepted")
	}
}

// TestRunCheckpointRestartAndJSON drives the full loop: step with
// -checkpoint-every, restart a fresh model from the file, and check the
// emitted JSON run record matches the step data.
func TestRunCheckpointRestartAndJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	ckpt := filepath.Join(t.TempDir(), "run.chkpt")

	var csv, js bytes.Buffer
	m := smallSinker(t, 2)
	err := Run(m, Config{Steps: 2, CheckpointEvery: 1, CheckpointPath: ckpt, Out: &csv, JSONOut: &js, Scenario: "sinker"})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(csv.String(), "# checkpointed step 2") {
		t.Fatalf("missing checkpoint marker in output:\n%s", csv.String())
	}

	var rec RunRecord
	if err := json.Unmarshal(js.Bytes(), &rec); err != nil {
		t.Fatalf("bad JSON record: %v", err)
	}
	if rec.Scenario != "sinker" || rec.Backend != "shared" || len(rec.Steps) != 2 {
		t.Fatalf("record header wrong: %+v", rec)
	}
	if rec.Steps[0].KrylovIts != m.Stats[0].KrylovIts || rec.AvgStepS <= 0 {
		t.Fatalf("record steps wrong: %+v", rec.Steps)
	}

	// Restart from the step-2 checkpoint and take one more step.
	m2 := smallSinker(t, 2)
	var csv2 bytes.Buffer
	if err := Run(m2, Config{Steps: 1, RestartFrom: ckpt, Out: &csv2}); err != nil {
		t.Fatal(err)
	}
	if m2.StepNum != 3 {
		t.Fatalf("restarted run at step %d, want 3", m2.StepNum)
	}
	if !strings.Contains(csv2.String(), "# restarted from") {
		t.Fatalf("missing restart marker:\n%s", csv2.String())
	}
}

// TestRunDistributedRecordsComm: a distributed run labels its stats and
// reports fabric traffic in the JSON record.
func TestRunDistributedRecordsComm(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	m := smallSinker(t, 2)
	m.Backend, _ = Backend("2x1x1", false, 0)
	var js bytes.Buffer
	if err := Run(m, Config{Steps: 1, Out: &bytes.Buffer{}, JSONOut: &js, Scenario: "sinker"}); err != nil {
		t.Fatal(err)
	}
	var rec RunRecord
	if err := json.Unmarshal(js.Bytes(), &rec); err != nil {
		t.Fatal(err)
	}
	if rec.Backend != "distributed" || rec.Ranks != 2 {
		t.Fatalf("record backend wrong: %+v", rec)
	}
	if rec.Steps[0].HaloMsgs == 0 || rec.Steps[0].AllReduces == 0 {
		t.Fatalf("no communication recorded: %+v", rec.Steps[0])
	}
}
