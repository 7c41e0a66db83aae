package main

import (
	"testing"

	"ptatin3d/internal/model"
	"ptatin3d/internal/scenario"
	"ptatin3d/internal/stokes"
)

// TestTracedBackendIsTransparent steps a Small-resolution sinker twice
// with and without the tracing decorator, on both backends, and
// requires the same final state bit for bit, the same answers to the
// capability probes, and live instruments.
func TestTracedBackendIsTransparent(t *testing.T) {
	spec := scenario.Sinker(scenario.DefaultSinkerOptions())
	spec.Resolution = spec.SmallResolution()
	for _, tc := range []struct {
		name    string
		backend func() model.StokesBackend
	}{
		{"shared", func() model.StokesBackend { return nil }},
		{"distributed", func() model.StokesBackend {
			return model.NewDistributedBackend(2, 1, 1, stokes.DistOptions{})
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := func(wrap bool) (*model.Model, *tracedBackend, *tracer) {
				m, err := scenario.Compile(spec, 2)
				if err != nil {
					t.Fatal(err)
				}
				m.Backend = tc.backend()
				var tb *tracedBackend
				tr := newTracer()
				if wrap {
					tb = newTracedBackend(m.Backend, tr)
					m.Backend = tb
				}
				for k := 0; k < 2; k++ {
					if err := m.StepForward(); err != nil {
						t.Fatal(err)
					}
				}
				return m, tb, tr
			}
			plain, _, _ := run(false)
			traced, tb, tr := run(true)
			if a, b := stateDigest(plain), stateDigest(traced); a != b {
				t.Fatalf("traced state %s differs from untraced %s", b, a)
			}
			for i := range plain.Stats {
				p, q := plain.Stats[i], traced.Stats[i]
				if p.Backend != q.Backend || p.Ranks != q.Ranks || p.HaloMsgs != q.HaloMsgs || p.AllReduces != q.AllReduces {
					t.Errorf("step %d stats differ: %+v vs %+v", i+1, p, q)
				}
			}
			inner := tc.backend()
			if inner == nil {
				inner = model.SharedBackend{}
			}
			po, ok := inner.(interface{ PicardOnly() bool })
			if tb.PicardOnly() != (ok && po.PicardOnly()) || tb.Name() != inner.Name() {
				t.Errorf("decorator answers Name=%q PicardOnly=%v unlike %T", tb.Name(), tb.PicardOnly(), inner)
			}
			if len(tr.named("krylov.solve")) == 0 || len(tb.solves) != len(tr.named("krylov.solve")) {
				t.Fatalf("recorded %d solve spans for %d solves", len(tr.named("krylov.solve")), len(tb.solves))
			}
			applies := len(tr.named("krylov.op_apply")) + len(tr.named("krylov.pc_apply"))
			if tc.name == "shared" && (applies == 0 || tb.comm != (stokes.RankStats{})) {
				t.Errorf("shared: %d applies recorded, comm stats %+v", applies, tb.comm)
			}
			if tc.name == "distributed" && (applies != 0 || tb.comm.HaloMsgs == 0) {
				t.Errorf("distributed: %d applies recorded, %d halo messages", applies, tb.comm.HaloMsgs)
			}
		})
	}
}
