package core

// Network distance sweep (extension of Table 1's remote rows): remote read
// latency as a function of mesh distance. The paper reports only
// neighbour-node latencies (its two-node measurement setup); the mesh and
// runtime support arbitrary distance, and dimension-order routing adds
// HopLat per hop in each direction, so latency must grow linearly.

import (
	"fmt"
	"strings"
)

// NetSweepRow is one distance point.
type NetSweepRow struct {
	Hops       int
	ReadCycles int64
}

// NetworkSweepExperiment measures remote read latency from node 0 to homes
// at increasing distances on an 8x1x1 mesh, one fresh machine per
// distance point.
func NetworkSweepExperiment() ([]NetSweepRow, error) {
	dists := []int{1, 3, 5, 7}
	out := make([]NetSweepRow, len(dists))
	for i, d := range dists {
		s, err := NewSim(Options{Nodes: 8})
		if err != nil {
			return nil, err
		}
		addr := s.HomeBase(d) + 16
		// Stage the value and warm the home node's cache and LTLB.
		stage := fmt.Sprintf(`
    movi i1, #%d
    movi i2, #7
    st [i1], i2
    ld i3, [i1]
    add i4, i3, #0
    halt
`, addr)
		if err := s.LoadASM(d, 0, 0, stage); err != nil {
			return nil, err
		}
		if _, err := s.Run(200000); err != nil {
			return nil, err
		}
		lat, err := timeRead(s, addr)
		if err != nil {
			return nil, err
		}
		out[i] = NetSweepRow{Hops: d, ReadCycles: lat}
	}
	return out, nil
}

// FormatNetSweep renders the sweep.
func FormatNetSweep(rows []NetSweepRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-6s %20s\n", "hops", "remote read (cycles)")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-6d %20d\n", r.Hops, r.ReadCycles)
	}
	if len(rows) >= 2 {
		first, last := rows[0], rows[len(rows)-1]
		perHop := float64(last.ReadCycles-first.ReadCycles) / float64(2*(last.Hops-first.Hops))
		fmt.Fprintf(&b, "marginal cost: %.2f cycles per hop per direction\n", perHop)
	}
	return b.String()
}
