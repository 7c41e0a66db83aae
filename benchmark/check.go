package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"

	"ptatin3d/internal/model"
)

// Point-population invariants checked after every step of every seed.
// Outflow removal and population control may change the point count a
// little over an episode, and advection moves lithology boundaries by
// less than a cell, so larger changes mean a broken step.
const (
	minPointFrac   = 0.9  // final/initial point count, lower bound
	maxPointFrac   = 1.5  // final/initial point count, upper bound
	maxLithoDrift  = 0.02 // absolute change of any lithology's point fraction
	referenceScale = 10   // reference tolerance = referenceScale × solver rtol
)

// stepDiag is the per-step diagnostic compared against the reference.
type stepDiag struct {
	Dt      float64 `json:"dt"`
	KE      float64 `json:"kinetic_energy"`
	TopoMin float64 `json:"topo_min"`
	TopoMax float64 `json:"topo_max"`
	Points  int     `json:"points"`
}

//go:embed reference.json
var referenceJSON []byte

// reference maps a workload to the diagnostics of its first steps at
// DefaultSeed.
type reference map[string][]stepDiag

func loadReference() (reference, error) {
	ref := reference{}
	if err := json.Unmarshal(referenceJSON, &ref); err != nil {
		return nil, fmt.Errorf("reference.json: %w", err)
	}
	return ref, nil
}

// writeReference stores diags as the reference of workload in path,
// keeping the other workloads' entries.
func writeReference(path, workload string, diags []stepDiag) error {
	ref := reference{}
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &ref); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	ref[workload] = diags
	data, err := json.MarshalIndent(ref, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// referenceTol is the relative tolerance of the reference comparison:
// the loosest of the outer Krylov and nonlinear relative tolerances the
// spec solves to, scaled by referenceScale. Runs on one platform are
// bit-reproducible; the tolerance admits a different rounding order
// (another architecture or compiler) that moves the converged state
// within the solver tolerance.
func referenceTol(m *model.Model) float64 {
	return referenceScale * math.Max(m.Cfg.EffectiveParams().RTol, m.Nonlinear.RTol)
}

// compareReference checks one step's diagnostics against the reference.
func compareReference(got, want stepDiag, tol float64) error {
	rel := func(name string, g, w float64) error {
		if math.Abs(g-w) > tol*math.Abs(w) {
			return fmt.Errorf("%s = %.10g, reference %.10g (rel tol %.1e)", name, g, w, tol)
		}
		return nil
	}
	for _, err := range []error{
		rel("dt", got.Dt, want.Dt),
		rel("kinetic energy", got.KE, want.KE),
		rel("topography min", got.TopoMin, want.TopoMin),
		rel("topography max", got.TopoMax, want.TopoMax),
	} {
		if err != nil {
			return err
		}
	}
	if got.Points != want.Points {
		return fmt.Errorf("point count = %d, reference %d", got.Points, want.Points)
	}
	return nil
}

// invariants holds the initial point population of one model.
type invariants struct {
	points0 int
	frac0   []float64
}

func newInvariants(m *model.Model) invariants {
	return invariants{points0: m.Points.Len(), frac0: lithoFractions(m)}
}

func lithoFractions(m *model.Model) []float64 {
	frac := make([]float64, len(m.Lith))
	for _, l := range m.Points.Litho {
		frac[l]++
	}
	for i := range frac {
		frac[i] /= float64(max(1, m.Points.Len()))
	}
	return frac
}

// check verifies the state after a step: finite fields and a point
// population close to the initial one.
func (inv invariants) check(m *model.Model) error {
	for i, v := range m.X {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("X[%d] = %v", i, v)
		}
	}
	for i, v := range m.Temp {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("Temp[%d] = %v", i, v)
		}
	}
	n := m.Points.Len()
	if r := float64(n) / float64(inv.points0); r < minPointFrac || r > maxPointFrac {
		return fmt.Errorf("point count %d is %.3f× the initial %d", n, r, inv.points0)
	}
	for l, f := range lithoFractions(m) {
		if d := math.Abs(f - inv.frac0[l]); d > maxLithoDrift {
			return fmt.Errorf("lithology %d point fraction %.4f drifted %.4f from %.4f", l, f, d, inv.frac0[l])
		}
	}
	return nil
}

// stateDigest hashes the bits of everything a step advances: the
// coupled state, temperature, mesh coordinates, material points, time
// and the per-step solver counts.
func stateDigest(m *model.Model) string {
	h := sha256.New()
	var b [8]byte
	f := func(v float64) {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	i := func(v int64) {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
	for _, xs := range [][]float64{m.X, m.Temp, m.Prob.DA.Coords, m.Points.X, m.Points.Y, m.Points.Z,
		m.Points.Plastic, m.Points.Xi, m.Points.Et, m.Points.Ze} {
		i(int64(len(xs)))
		for _, v := range xs {
			f(v)
		}
	}
	for k := range m.Points.Litho {
		i(int64(m.Points.Litho[k])<<32 | int64(uint32(m.Points.Elem[k])))
	}
	f(m.Time)
	i(int64(m.StepNum))
	for _, s := range m.Stats {
		i(int64(s.NewtonIts))
		i(int64(s.KrylovIts))
		f(s.Dt)
	}
	return hex.EncodeToString(h.Sum(nil))
}
