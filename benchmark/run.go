package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"

	"ptatin3d/internal/model"
	"ptatin3d/internal/scenario"
)

// setupReps is the number of set-ups before the first episode; setup_s
// is the median over these and one per further episode.
const setupReps = 5

// Metric is one reported number with its unit.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// StepRecord is one step of an episode.
type StepRecord struct {
	Step      int     `json:"step"`
	WallS     float64 `json:"wall_s"`
	CPUS      float64 `json:"cpu_s"`
	NewtonIts int     `json:"newton_its"`
	KrylovIts int     `json:"krylov_its"`
	Converged bool    `json:"converged"`
	stepDiag
	Error string `json:"error,omitempty"`
}

// Episode is one fresh model advanced a fixed number of steps.
type Episode struct {
	Steps  []StepRecord `json:"steps"`
	Digest string       `json:"state_sha256"`
}

func (e Episode) diags() []stepDiag {
	out := make([]stepDiag, len(e.Steps))
	for i, s := range e.Steps {
		out[i] = s.stepDiag
	}
	return out
}

// Record is the full result of one run (the --out line).
type Record struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Trace     bool              `json:"trace"`
	Seconds   float64           `json:"seconds"`
	Start     time.Time         `json:"start"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
	// FailedStepFrac is Failed/Attempted; UnconvergedSteps counts steps
	// whose nonlinear iteration stopped with Converged=false. The time
	// loop accepts and flags those steps, so they are reported as
	// measured and not counted as failures.
	FailedStepFrac   float64    `json:"failed_step_frac"`
	UnconvergedSteps int        `json:"unconverged_steps"`
	Failures         []string   `json:"failures,omitempty"`
	SetupS           []float64  `json:"setup_samples_s"`
	Episodes         []Episode  `json:"episodes"`
	Provenance       Provenance `json:"provenance"`
	Spans            []Span     `json:"spans,omitempty"`
}

func (r *Record) failf(format string, a ...any) {
	r.Failures = append(r.Failures, fmt.Sprintf(format, a...))
}

// finish fills the pass/fail summary from the episodes and failures.
func (r *Record) finish() {
	r.Attempted, r.UnconvergedSteps = 0, 0
	for _, e := range r.Episodes {
		for _, s := range e.Steps {
			r.Attempted++
			if !s.Converged {
				r.UnconvergedSteps++
			}
		}
	}
	r.Attempted = max(r.Attempted, 1)
	// Every failure is one failed step or one failed whole-run check
	// (determinism, trace identity, dead instruments).
	r.Failed = min(len(r.Failures), r.Attempted)
	r.FailedStepFrac = float64(r.Failed) / float64(r.Attempted)
	r.Correct = len(r.Failures) == 0
}

// setup compiles the spec and installs the workload's backend: the
// set-up a user pays before the first step. It returns the model and
// the CPU seconds the set-up took. A collection first clears the
// garbage of earlier models, so neither the timing nor the peak memory
// depends on how many set-ups came before.
func setup(w workload, spec scenario.Spec) (*model.Model, float64, error) {
	runtime.GC()
	c0 := cpuSeconds()
	m, err := scenario.Compile(spec, Workers())
	if err != nil {
		return nil, 0, err
	}
	m.Backend = w.Backend()
	return m, cpuSeconds() - c0, nil
}

// runEpisode advances m by steps steps, checking every step. stepHook,
// when non-nil, wraps each StepForward call (the traced run's span).
// Each measured step starts with a garbage collection, counted in its
// CPU time: the collector then starts every step from the same heap
// state, which keeps the peak memory and the step cost from depending
// on where the previous step left a collection cycle.
func runEpisode(rec *Record, m *model.Model, steps int, ref []stepDiag, stepHook func(func())) Episode {
	inv := newInvariants(m)
	tol := referenceTol(m)
	var ep Episode
	for k := 1; k <= steps; k++ {
		var err error
		t0, c0 := time.Now(), cpuSeconds()
		runtime.GC()
		if stepHook != nil {
			stepHook(func() { err = m.StepForward() })
		} else {
			err = m.StepForward()
		}
		sr := StepRecord{Step: k, WallS: time.Since(t0).Seconds(), CPUS: cpuSeconds() - c0}
		if err == nil {
			st := m.Stats[len(m.Stats)-1]
			sr.NewtonIts, sr.KrylovIts, sr.Converged = st.NewtonIts, st.KrylovIts, st.Converged
			sr.stepDiag = stepDiag{Dt: st.Dt, KE: m.KineticEnergy(), TopoMin: st.TopoMin, TopoMax: st.TopoMax, Points: st.PointCount}
			err = inv.check(m)
			if err == nil && k <= len(ref) {
				err = compareReference(sr.stepDiag, ref[k-1], tol)
			}
		}
		if err != nil {
			sr.Error = err.Error()
			rec.failf("episode %d step %d: %v", len(rec.Episodes)+1, k, err)
		}
		ep.Steps = append(ep.Steps, sr)
		if err != nil {
			break
		}
	}
	ep.Digest = stateDigest(m)
	return ep
}

// newRecord resolves the workload's spec and reference for one run.
func newRecord(w workload, seed int64, seconds float64, trace bool) (*Record, scenario.Spec, []stepDiag, error) {
	rec := &Record{Workload: w.Name, Seed: seed, Trace: trace, Seconds: seconds, Start: time.Now()}
	spec := w.Spec(seed)
	var ref []stepDiag
	if seed == DefaultSeed {
		all, err := loadReference()
		if err != nil {
			return nil, spec, nil, err
		}
		ref = all[w.Name]
	}
	return rec, spec, ref, nil
}

// runUntraced measures the end-to-end metrics: set-up time, the first
// step of each episode, steady-state step throughput and peak memory.
// Times are CPU seconds of the process (core-seconds, summed over its
// threads): on a host whose hypervisor steals a varying share of the
// CPU, wall time measures the neighbours as much as the program.
// Episodes are repeated while the next one is expected to end within
// the measurement time; at least one always runs.
func runUntraced(w workload, seed int64, seconds float64) (*Record, error) {
	rec, spec, ref, err := newRecord(w, seed, seconds, false)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	var m *model.Model
	fresh := func() error {
		m = nil // let the previous model be collected before the next set-up
		var c float64
		if m, c, err = setup(w, spec); err != nil {
			return err
		}
		rec.SetupS = append(rec.SetupS, c)
		return nil
	}
	for i := 0; i < setupReps; i++ {
		if err := fresh(); err != nil {
			return nil, err
		}
	}
	rec.Provenance = provenance(w, seed, spec, m)
	var timedSteps int
	var timedS, firstS []float64
	for {
		epStart := time.Now()
		if len(rec.Episodes) > 0 {
			if err := fresh(); err != nil {
				return nil, err
			}
		}
		ep := runEpisode(rec, m, w.Steps, ref, nil)
		rec.Episodes = append(rec.Episodes, ep)
		if len(ep.Steps) < w.Steps {
			break // a step failed; the failure is recorded
		}
		firstS = append(firstS, ep.Steps[0].CPUS)
		for _, s := range ep.Steps[1:] {
			timedSteps++
			timedS = append(timedS, s.CPUS)
		}
		if d := rec.Episodes[0].Digest; ep.Digest != d {
			rec.failf("episode %d ended in state %s, episode 1 in %s: the run is not deterministic", len(rec.Episodes), ep.Digest, d)
		}
		elapsed, last := time.Since(start).Seconds(), time.Since(epStart).Seconds()
		if elapsed+last > seconds {
			break
		}
	}
	rec.finish()
	if len(firstS) == 0 {
		return rec, nil
	}
	rec.Metrics = map[string]Metric{
		"steps_per_core_s":  {float64(timedSteps) / sum(timedS), "steps/core-s"},
		"first_step_core_s": {median(firstS), "core-s"},
		"setup_s":           {median(rec.SetupS), "s"},
		"peak_rss_mb":       {peakRSSMB(), "MB"},
	}
	return rec, nil
}

// peakRSSMB is the process's peak resident set size in megabytes.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) * 1024 / 1e6 // Maxrss is in KiB on Linux
}

// cpuSeconds is the user plus system CPU time of the process so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

func mean(xs []float64) float64 { return sum(xs) / float64(max(1, len(xs))) }

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
