// Package baseline holds what the Fig. 10/11 comparison engines share
// (graphchi and xstream today). The galois oracle and internal/algo
// keep their own copies on purpose: subject and oracle stay independent.
package baseline

import "flashgraph/internal/graph"

// CountCommon returns |a ∩ b| for sorted slices. Callers that want only
// the members above some x slice both past it first.
func CountCommon(a, b []graph.VertexID) int64 {
	i, j := 0, 0
	var n int64
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			n++
			i++
			j++
		}
	}
	return n
}
