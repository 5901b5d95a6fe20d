package place

import "math"

// NetIndex is a per-component adjacency index over a fixed net list. The
// Eq. 3 energy is a sum of independent per-net terms, so moving one
// component only changes the terms of nets incident to it; the index lets
// the placers evaluate exactly that slice of the sum instead of rescanning
// every net. Eq. 3 energies evaluated through the index agree with the
// full Energy to floating-point roundoff (the terms are identical, only
// the summation order differs), which the property tests pin down.
type NetIndex struct {
	nets   []Net
	byComp [][]int32 // net indices incident to each component
}

// BuildNetIndex indexes nets by their two endpoint components. The net
// slice is captured, not copied: it must not be mutated while the index
// is in use.
func BuildNetIndex(nComps int, nets []Net) *NetIndex {
	// Each component's list is a window of one backing array sized by a
	// counting pass, so the appends below never allocate.
	deg := make([]int, nComps)
	total := 0
	for _, n := range nets {
		deg[n.A]++
		total++
		if n.B != n.A {
			deg[n.B]++
			total++
		}
	}
	backing := make([]int32, total)
	ix := &NetIndex{nets: nets, byComp: make([][]int32, nComps)}
	for c, d := range deg {
		ix.byComp[c] = backing[:0:d]
		backing = backing[d:]
	}
	for k, n := range nets {
		ix.byComp[n.A] = append(ix.byComp[n.A], int32(k))
		if n.B != n.A {
			ix.byComp[n.B] = append(ix.byComp[n.B], int32(k))
		}
	}
	return ix
}

// CompEnergy returns the Eq. 3 energy restricted to nets incident to
// component i, at its current rectangle.
func (ix *NetIndex) CompEnergy(p *Placement, i int) float64 {
	return ix.CompEnergyAt(p, i, p.Rects[i])
}

// CompEnergyAt returns the Eq. 3 energy restricted to nets incident to
// component i, evaluated as if i occupied rectangle r. It never writes to
// p, so candidate positions can be scored without mutating the placement.
func (ix *NetIndex) CompEnergyAt(p *Placement, i int, r Rect) float64 {
	cx, cy := r.CenterX(), r.CenterY()
	var e float64
	for _, k := range ix.byComp[i] {
		n := &ix.nets[k]
		o := n.A
		if int(o) == i {
			o = n.B
		}
		ro := p.Rects[o]
		e += (math.Abs(cx-ro.CenterX()) + math.Abs(cy-ro.CenterY())) * n.CP
	}
	return e
}
