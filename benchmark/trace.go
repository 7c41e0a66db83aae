package main

import (
	"time"

	"ptatin3d/internal/krylov"
	"ptatin3d/internal/la"
	"ptatin3d/internal/model"
	"ptatin3d/internal/stokes"
)

// Span is one timed call across a layer boundary, recorded by the
// benchmark around a call into the program. Parent is the index of the
// enclosing span (-1 at the top); times are offsets from the tracer's
// start.
type Span struct {
	Name   string        `json:"name"`
	Parent int           `json:"parent"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// Dur is the span's wall time.
func (s Span) Dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory. Calls are nested on one goroutine (the
// time loop and the probes are sequential; the program's worker pools
// run below the instrumented boundaries), so a stack of open spans
// gives every span its parent.
type tracer struct {
	t0    time.Time
	spans []Span
	open  []int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its index for end.
func (t *tracer) begin(name string) int {
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, Span{Name: name, Parent: parent, Start: time.Since(t.t0)})
	id := len(t.spans) - 1
	t.open = append(t.open, id)
	return id
}

// end closes span id, which must be the innermost open span.
func (t *tracer) end(id int) {
	t.spans[id].End = time.Since(t.t0)
	t.open = t.open[:len(t.open)-1]
}

// do records fn as one span.
func (t *tracer) do(name string, fn func()) {
	id := t.begin(name)
	fn()
	t.end(id)
}

// within returns the spans named name whose ancestors include span id.
func (t *tracer) within(id int, name string) []Span {
	var out []Span
	for i := id + 1; i < len(t.spans); i++ {
		s := t.spans[i]
		if s.Start >= t.spans[id].End {
			break
		}
		if s.Name == name && t.descends(i, id) {
			out = append(out, s)
		}
	}
	return out
}

func (t *tracer) descends(i, anc int) bool {
	for p := t.spans[i].Parent; p >= 0; p = t.spans[p].Parent {
		if p == anc {
			return true
		}
	}
	return false
}

// named returns the durations of every span called name.
func (t *tracer) named(name string) []time.Duration {
	var out []time.Duration
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s.Dur())
		}
	}
	return out
}

// tracedBackend is installed as Model.Backend in traced runs. It wraps
// the workload's own backend (SharedBackend for the default shared
// path) and answers Name, PicardOnly and TakeCommStats exactly as the
// wrapped backend does, so StepForward takes the same branches. It
// times every LinearSolve, and every Apply of the operator and
// preconditioner it is handed.
type tracedBackend struct {
	inner model.StokesBackend
	tr    *tracer

	solves []krylov.Result
	comm   stokes.RankStats // summed over ranks and drains
}

func newTracedBackend(inner model.StokesBackend, tr *tracer) *tracedBackend {
	if inner == nil {
		inner = model.SharedBackend{}
	}
	return &tracedBackend{inner: inner, tr: tr}
}

// Name implements model.StokesBackend.
func (b *tracedBackend) Name() string { return b.inner.Name() }

// PicardOnly answers as the wrapped backend; a backend without the
// method is treated by the model as false.
func (b *tracedBackend) PicardOnly() bool {
	po, ok := b.inner.(interface{ PicardOnly() bool })
	return ok && po.PicardOnly()
}

// TakeCommStats forwards the wrapped backend's statistics unchanged
// (nil when it reports none, which the model reads as zero ranks) and
// keeps a running total for the comm metrics.
func (b *tracedBackend) TakeCommStats() []stokes.RankStats {
	rep, ok := b.inner.(model.CommStatsReporter)
	if !ok {
		return nil
	}
	st := rep.TakeCommStats()
	for _, r := range st {
		b.comm.Add(r)
	}
	return st
}

// LinearSolve implements model.StokesBackend.
func (b *tracedBackend) LinearSolve(s *stokes.Solver, method string, jop krylov.Op, pc krylov.Preconditioner, rhs, delta la.Vec, prm krylov.Params) krylov.Result {
	id := b.tr.begin("krylov.solve")
	r := b.inner.LinearSolve(s, method, tracedOp{jop, b.tr}, tracedPC{pc, b.tr}, rhs, delta, prm)
	b.tr.end(id)
	b.solves = append(b.solves, r)
	return r
}

type tracedOp struct {
	krylov.Op
	tr *tracer
}

func (o tracedOp) Apply(x, y la.Vec) {
	id := o.tr.begin("krylov.op_apply")
	o.Op.Apply(x, y)
	o.tr.end(id)
}

type tracedPC struct {
	krylov.Preconditioner
	tr *tracer
}

func (p tracedPC) Apply(r, z la.Vec) {
	id := p.tr.begin("krylov.pc_apply")
	p.Preconditioner.Apply(r, z)
	p.tr.end(id)
}
