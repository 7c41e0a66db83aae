package krylov

import (
	"fmt"
	"sort"

	"ptatin3d/internal/la"
)

// ASM is an overlapping additive Schwarz preconditioner (paper §V-A): the
// unknowns are split into contiguous base blocks ("subdomains"), each
// grown by `overlap` levels of matrix-graph adjacency; subdomain problems
// are solved by ILU(0) (the paper's choice) or exact LU. By default the
// restricted variant (RAS) is used — corrections are scattered back only
// to the base block — matching PETSc's default and avoiding double
// counting in overlap regions.
type ASM struct {
	subRows  [][]int    // global row indices of each (overlapped) subdomain
	baseMask [][]bool   // per-subdomain: local index belongs to the base block
	iluF     []*la.ILU0 // ILU(0) factors (Exact=false)
	luF      []*la.LU   // dense LU factors (Exact=true)
	restrict bool
	// rl, zl are the subdomain work vectors, sized to the largest
	// subdomain and reused by every Apply, so an ASM is not safe for
	// concurrent Apply calls (distributed coarse solves are serialized).
	rl, zl la.Vec
}

// ASMOptions configures NewASM.
type ASMOptions struct {
	Subdomains int  // number of base blocks
	Overlap    int  // graph-adjacency overlap levels (paper uses 4)
	Exact      bool // dense LU subdomain solves instead of ILU(0)
	Additive   bool // plain additive instead of restricted (RAS)
}

// NewASM builds the preconditioner for the CSR matrix a.
func NewASM(a *la.CSR, opt ASMOptions) (*ASM, error) {
	n := a.NRows
	nsub := opt.Subdomains
	if nsub < 1 {
		nsub = 1
	}
	if nsub > n {
		nsub = n
	}
	asm := &ASM{restrict: !opt.Additive}
	chunk := (n + nsub - 1) / nsub
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		// Grow the base block by `overlap` adjacency levels.
		inSet := make(map[int]bool, (hi-lo)*2)
		frontier := make([]int, 0, hi-lo)
		for i := lo; i < hi; i++ {
			inSet[i] = true
			frontier = append(frontier, i)
		}
		for lvl := 0; lvl < opt.Overlap; lvl++ {
			var next []int
			for _, i := range frontier {
				for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
					j := a.ColInd[k]
					if !inSet[j] {
						inSet[j] = true
						next = append(next, j)
					}
				}
			}
			frontier = next
			if len(frontier) == 0 {
				break
			}
		}
		rows := make([]int, 0, len(inSet))
		for i := range inSet {
			rows = append(rows, i)
		}
		sort.Ints(rows)
		base := make([]bool, len(rows))
		for l, g := range rows {
			base[l] = g >= lo && g < hi
		}
		sub := la.ExtractSubmatrix(a, rows)
		asm.subRows = append(asm.subRows, rows)
		if len(rows) > len(asm.rl) {
			asm.rl, asm.zl = la.NewVec(len(rows)), la.NewVec(len(rows))
		}
		asm.baseMask = append(asm.baseMask, base)
		if opt.Exact {
			d := la.NewDense(sub.NRows, sub.NCols)
			for i := 0; i < sub.NRows; i++ {
				for k := sub.RowPtr[i]; k < sub.RowPtr[i+1]; k++ {
					d.Add(i, sub.ColInd[k], sub.Val[k])
				}
			}
			f, err := la.Factor(d)
			if err != nil {
				return nil, fmt.Errorf("krylov: ASM subdomain LU: %w", err)
			}
			asm.luF = append(asm.luF, f)
			asm.iluF = append(asm.iluF, nil)
		} else {
			f, err := la.NewILU0(sub)
			if err != nil {
				return nil, fmt.Errorf("krylov: ASM subdomain ILU(0): %w", err)
			}
			asm.iluF = append(asm.iluF, f)
			asm.luF = append(asm.luF, nil)
		}
	}
	return asm, nil
}

// NumSubdomains returns the number of subdomains.
func (asm *ASM) NumSubdomains() int { return len(asm.subRows) }

// Apply computes z = Σ_i Rᵢᵀ·Aᵢ⁻¹·Rᵢ·r (restricted by default).
func (asm *ASM) Apply(r, z la.Vec) {
	z.Zero()
	for s, rows := range asm.subRows {
		rl, zl := asm.rl[:len(rows)], asm.zl[:len(rows)]
		for l, g := range rows {
			rl[l] = r[g]
		}
		if asm.luF[s] != nil {
			asm.luF[s].Solve(rl, zl)
		} else {
			asm.iluF[s].Solve(rl, zl)
		}
		base := asm.baseMask[s]
		for l, g := range rows {
			if asm.restrict {
				if base[l] {
					z[g] = zl[l]
				}
			} else {
				z[g] += zl[l]
			}
		}
	}
}
