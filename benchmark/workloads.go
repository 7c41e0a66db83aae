package main

import (
	"fmt"
	"math/rand"
	"runtime"

	"ptatin3d/internal/model"
	"ptatin3d/internal/scenario"
	"ptatin3d/internal/stokes"
)

// DefaultSeed selects the registered spec unperturbed; only runs at this
// seed are compared against the stored reference diagnostics.
const DefaultSeed = 0

// workload is one named benchmark input: a spec derived from the seed,
// the backend that runs it, and the fixed length of one episode (a
// fresh model advanced this many steps; step 1 pays the cold solver
// build, the rest are the timed steps).
type workload struct {
	Name string
	// Spec returns the workload's spec for a seed. The perturbation is
	// small on purpose: every seed is the same physical problem class
	// with the same solver configuration, so the cost per step stays
	// comparable across seeds while the inputs differ.
	Spec func(seed int64) scenario.Spec
	// Ranks is the simulated rank grid; zero selects the default shared
	// path (Model.Backend left nil).
	Ranks [3]int
	// Steps is the episode length of an untraced run; TraceSteps that of
	// each of the two episodes of a traced run.
	Steps, TraceSteps int
}

// Distributed reports whether the workload runs the rank-distributed
// backend.
func (w workload) Distributed() bool { return w.Ranks != [3]int{} }

// Backend returns a fresh backend for one model (nil: the shared path).
func (w workload) Backend() model.StokesBackend {
	if !w.Distributed() {
		return nil
	}
	return model.NewDistributedBackend(w.Ranks[0], w.Ranks[1], w.Ranks[2], stokes.DistOptions{})
}

// Workers is the worker count of every workload: one per CPU, matching
// GOMAXPROCS.
func Workers() int { return runtime.NumCPU() }

var workloads = []workload{
	// The kernel, V-cycle and Krylov path of the paper's Tables I–IV
	// (Δη=100, 8 spheres, 110,592 points); the control workload, where
	// setup, thermal and comm do almost nothing.
	{
		Name: "sinker-16",
		Spec: func(seed int64) scenario.Spec {
			o := scenario.DefaultSinkerOptions()
			o.M = 16
			return jitterSpheres(scenario.Sinker(o), seed)
		},
		Steps: 4, TraceSteps: 2,
	},
	// The same Stokes layer used differently: several Picard
	// relinearizations per step, in-place solver refreshes and
	// loose-tolerance solves, with thermal coupling and point-population
	// control on.
	{
		Name: "rift-32x8x16",
		Spec: func(seed int64) scenario.Spec {
			s := scenario.Rift(scenario.DefaultRiftOptions())
			for i := range s.Geometry {
				if s.Geometry[i].Kind == "damage" {
					s.Geometry[i].Seed += seed
				}
			}
			return s
		},
		Steps: 3, TraceSteps: 2,
	},
	// The only workload that runs comm and the distributed V-cycle, in
	// the high-contrast (Δη=1e5), long-Arnoldi regime. 12³ does not
	// work here: its levels 12→6→3 do not nest for Px=2. At this
	// contrast a sub-element move of the spheres changes the Krylov
	// iteration count by up to 17%, so the seed varies the sphere
	// densities instead and keeps the viscosity structure.
	{
		Name: "swarm-2rank",
		Spec: func(seed int64) scenario.Spec {
			return perturbDensities(scenario.SinkerSwarm(), seed)
		},
		Ranks: [3]int{2, 1, 1},
		Steps: 4, TraceSteps: 2,
	},
}

func findWorkload(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
		names = append(names, w.Name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// jitterSpheres replaces the spec's swarm primitives by explicit
// spheres whose centres are moved by up to a quarter of an element
// width per axis, drawn from the seed. The default seed keeps the
// registered placement.
func jitterSpheres(s scenario.Spec, seed int64) scenario.Spec {
	if seed == DefaultSeed {
		return s
	}
	rng := rand.New(rand.NewSource(seed))
	lo, hi := s.Domain.Lo(), s.Domain.Hi()
	var geom []scenario.Primitive
	for _, p := range s.Geometry {
		if p.Kind != "swarm" {
			geom = append(geom, p)
			continue
		}
		for _, c := range scenario.SwarmCenters(p, s.Domain) {
			for a := 0; a < 3; a++ {
				h := (hi[a] - lo[a]) / float64(s.Resolution[a])
				c[a] += (2*rng.Float64() - 1) * h / 4
				c[a] = min(max(c[a], lo[a]+p.Radius), hi[a]-p.Radius)
			}
			geom = append(geom, scenario.Primitive{Kind: "sphere", Litho: p.Litho, Center: c, Radius: p.Radius})
		}
	}
	s.Geometry = geom
	return s
}

// perturbDensities gives every sphere of the spec's swarm primitives its
// own lithology, a copy of the swarm's with the density contrast to the
// ambient lithology 0 scaled by a factor in [0.95, 1.05] drawn from the
// seed. The default seed keeps the registered spec.
func perturbDensities(s scenario.Spec, seed int64) scenario.Spec {
	if seed == DefaultSeed {
		return s
	}
	rng := rand.New(rand.NewSource(seed))
	ambient := s.Lithologies[0].Rho0
	var geom []scenario.Primitive
	for _, p := range s.Geometry {
		if p.Kind != "swarm" {
			geom = append(geom, p)
			continue
		}
		for _, c := range scenario.SwarmCenters(p, s.Domain) {
			l := s.Lithologies[p.Litho]
			l.Rho0 = ambient + (l.Rho0-ambient)*(1+0.05*(2*rng.Float64()-1))
			s.Lithologies = append(s.Lithologies, l)
			geom = append(geom, scenario.Primitive{Kind: "sphere", Litho: len(s.Lithologies) - 1, Center: c, Radius: p.Radius})
		}
	}
	s.Geometry = geom
	return s
}
