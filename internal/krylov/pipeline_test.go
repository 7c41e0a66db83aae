package krylov

import (
	"math"
	"math/rand"
	"testing"

	"ptatin3d/internal/la"
)

// stripeReducer is a deterministic Reducer/BatchReducer that models the
// raw-block-forwarding tree allreduce of internal/comm: indices are
// partitioned into 64 fixed stripes, each stripe's partial is computed
// locally, and the global value is the left-associated sum of the
// stripe partials in stripe order. Grouping stripes into 1, 8 or 64
// simulated ranks does not change the arithmetic — exactly the property
// comm.AllReduceSumVec provides by forwarding raw per-rank blocks — so
// a pipelined solve driven by this reducer is bit-identical across rank
// counts by construction. Ranks is recorded only to document which
// grouping a test instance stands for.
type stripeReducer struct{ Ranks int }

const stripeCount = 64

func (sr *stripeReducer) stripes(n int) [][2]int {
	s := make([][2]int, 0, stripeCount)
	for i := 0; i < stripeCount; i++ {
		lo, hi := i*n/stripeCount, (i+1)*n/stripeCount
		if lo < hi {
			s = append(s, [2]int{lo, hi})
		}
	}
	return s
}

func (sr *stripeReducer) Dot(x, y la.Vec) float64 {
	var sum float64
	for _, st := range sr.stripes(len(x)) {
		var p float64
		for i := st[0]; i < st[1]; i++ {
			p += x[i] * y[i]
		}
		sum += p
	}
	return sum
}

func (sr *stripeReducer) DotBatch(xs, ys []la.Vec) []float64 {
	out := make([]float64, len(xs))
	for i := range xs {
		out[i] = sr.Dot(xs[i], ys[i])
	}
	return out
}

// pipeRun solves a·x = b with the given method, pipelined or classical.
func pipeRun(a *la.CSR, b la.Vec, method string, prm Params) (la.Vec, Result) {
	x := la.NewVec(a.NRows)
	d := la.NewVec(a.NRows)
	a.Diag(d)
	m := NewJacobi(d)
	var res Result
	switch method {
	case "cg":
		res = CG(CSROp{a}, m, b, x, prm)
	case "gcr":
		res = GCR(CSROp{a}, m, b, x, prm, nil)
	case "fgmres":
		res = FGMRES(CSROp{a}, m, b, x, prm)
	default:
		res = GMRES(CSROp{a}, m, b, x, prm)
	}
	return x, res
}

// TestPipelinedMatchesClassical is the property test of the single-reduce
// variants: on randomized SPD (CG) and nonsymmetric (GCR/FGMRES) systems
// the pipelined solve must reach the same solution to ≤1e-10 and within
// ±2 outer iterations of the classical variant.
func TestPipelinedMatchesClassical(t *testing.T) {
	type tc struct {
		name   string
		method string
		spd    bool
	}
	cases := []tc{
		{"cg-lap3d", "cg", true},
		{"gcr-nonsym", "gcr", false},
		{"fgmres-nonsym", "fgmres", false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			for seed := int64(1); seed <= 4; seed++ {
				rng := rand.New(rand.NewSource(seed))
				var a *la.CSR
				if c.spd {
					a = lap3d(6)
				} else {
					a = nonsym(400)
				}
				b := randVec(rng, a.NRows)

				prm := DefaultParams()
				prm.RTol = 1e-10
				prm.MaxIt = 500
				xc, rc := pipeRun(a, b, c.method, prm)
				if !rc.Converged {
					t.Fatalf("seed %d: classical %s did not converge: %+v", seed, c.method, rc)
				}

				prm.Pipelined = true
				prm.Reducer = &stripeReducer{Ranks: 1}
				xp, rp := pipeRun(a, b, c.method, prm)
				if !rp.Converged {
					t.Fatalf("seed %d: pipelined %s did not converge: %+v", seed, c.method, rp)
				}

				if d := rp.Iterations - rc.Iterations; d < -2 || d > 2 {
					t.Fatalf("seed %d: iteration drift %d vs %d", seed, rp.Iterations, rc.Iterations)
				}
				diff := xp.Clone()
				diff.AXPY(-1, xc)
				if rel := diff.Norm2() / math.Max(xc.Norm2(), 1e-300); rel > 1e-10 {
					t.Fatalf("seed %d: solutions deviate: rel %.3e", seed, rel)
				}
			}
		})
	}
}

// TestPipelinedBitIdenticalAcrossRankCounts: the pipelined trajectory
// depends on the system, the RHS and the reducer's outputs — nothing
// else. With a reducer whose values are independent of how indices are
// grouped into ranks (the raw-block-forwarding scheme of
// comm.AllReduceSumVec, modeled here by fixed stripes), solves standing
// for 1, 8 and 64 ranks must produce bit-identical iterates.
func TestPipelinedBitIdenticalAcrossRankCounts(t *testing.T) {
	for _, method := range []string{"cg", "gcr", "fgmres"} {
		t.Run(method, func(t *testing.T) {
			var a *la.CSR
			if method == "cg" {
				a = lap3d(6)
			} else {
				a = nonsym(400)
			}
			rng := rand.New(rand.NewSource(7))
			b := randVec(rng, a.NRows)

			var ref la.Vec
			var refRes Result
			for _, ranks := range []int{1, 8, 64} {
				prm := DefaultParams()
				prm.RTol = 1e-10
				prm.MaxIt = 500
				prm.Pipelined = true
				prm.Reducer = &stripeReducer{Ranks: ranks}
				x, res := pipeRun(a, b, method, prm)
				if !res.Converged {
					t.Fatalf("ranks=%d: did not converge: %+v", ranks, res)
				}
				if ref == nil {
					ref, refRes = x, res
					continue
				}
				if res.Iterations != refRes.Iterations {
					t.Fatalf("ranks=%d: %d iterations vs %d at ranks=1", ranks, res.Iterations, refRes.Iterations)
				}
				if math.Float64bits(res.Residual) != math.Float64bits(refRes.Residual) {
					t.Fatalf("ranks=%d: final residual %x differs from %x", ranks,
						math.Float64bits(res.Residual), math.Float64bits(refRes.Residual))
				}
				for i := range x {
					if math.Float64bits(x[i]) != math.Float64bits(ref[i]) {
						t.Fatalf("ranks=%d: x[%d] = %x differs from %x", ranks, i,
							math.Float64bits(x[i]), math.Float64bits(ref[i]))
					}
				}
			}
		})
	}
}

// TestPipelinedFlagIgnoredWithoutReducer: with Reducer == nil the
// Pipelined flag must be inert — the serial classical path runs
// bit-for-bit, so existing single-process callers cannot be perturbed
// by the flag.
func TestPipelinedFlagIgnoredWithoutReducer(t *testing.T) {
	a := lap3d(5)
	rng := rand.New(rand.NewSource(3))
	b := randVec(rng, a.NRows)
	for _, method := range []string{"cg", "gcr", "fgmres"} {
		prm := DefaultParams()
		prm.RTol = 1e-10
		x1, r1 := pipeRun(a, b, method, prm)
		prm.Pipelined = true
		x2, r2 := pipeRun(a, b, method, prm)
		if r1.Iterations != r2.Iterations {
			t.Fatalf("%s: Pipelined without Reducer changed iterations: %d vs %d", method, r1.Iterations, r2.Iterations)
		}
		for i := range x1 {
			if math.Float64bits(x1[i]) != math.Float64bits(x2[i]) {
				t.Fatalf("%s: Pipelined without Reducer changed x[%d]", method, i)
			}
		}
	}
}

// TestPipelinedGCRRestartsOnDependentDirection: when a preconditioned
// direction lies in the span of the stored ones, the single-reduce norm
// estimate ‖q‖² − Σβᵢ² cancels to zero (or below, by rounding). The
// cycle restarts instead of breaking down. Here A = diag(2, 4) and the
// preconditioner returns e₁ twice, then the residual: every value is a
// power of two, so iteration 2's estimate is exactly 0, and the restarted
// iteration 3 solves the system exactly.
func TestPipelinedGCRRestartsOnDependentDirection(t *testing.T) {
	bld := la.NewBuilder(2, 2)
	bld.Add(0, 0, 2)
	bld.Add(1, 1, 4)
	a := CSROp{bld.ToCSR()}
	calls := 0
	m := PCFunc(func(r, z la.Vec) {
		calls++
		if calls <= 2 {
			z[0], z[1] = 1, 0
			return
		}
		z.Copy(r)
	})
	prm := DefaultParams()
	prm.Pipelined = true
	prm.Reducer = &stripeReducer{Ranks: 1}
	x := la.NewVec(2)
	res := GCR(a, m, la.Vec{1, 1}, x, prm, nil)
	if res.Err != nil || !res.Converged || res.Iterations != 3 {
		t.Fatalf("pipelined GCR: converged=%v after %d its, err %v; want convergence at iteration 3",
			res.Converged, res.Iterations, res.Err)
	}
	if x[0] != 0.5 || x[1] != 0.25 {
		t.Fatalf("x = %v, want [0.5 0.25]", x)
	}
}
