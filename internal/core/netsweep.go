package core

// Network distance sweep (extension of Table 1's remote rows): remote read
// latency as a function of mesh distance. The paper reports only
// neighbour-node latencies (its two-node measurement setup); the mesh and
// runtime support arbitrary distance, and dimension-order routing adds
// HopLat per hop in each direction, so latency must grow linearly.

import "fmt"

// expNetSweep measures remote read latency from node 0 to homes at
// increasing distances on an 8x1x1 mesh, one fresh machine per distance
// point, and the marginal cost of a hop (E12).
func expNetSweep(s *sheet) error {
	dists := []int{1, 3, 5, 7}
	lats := make([]int64, len(dists))
	s.printf("%-6s %20s\n", "hops", "remote read (cycles)")
	for i, d := range dists {
		sim, err := NewSim(Options{Nodes: 8})
		if err != nil {
			return err
		}
		addr := sim.HomeBase(d) + 16
		// Stage the value and warm the home node's cache and LTLB.
		stage := fmt.Sprintf(`
    movi i1, #%d
    movi i2, #7
    st [i1], i2
    ld i3, [i1]
    add i4, i3, #0
    halt
`, addr)
		if err := sim.LoadASM(d, 0, 0, stage); err != nil {
			return err
		}
		if _, err := sim.Run(200000); err != nil {
			return err
		}
		if lats[i], err = timeRead(sim, addr); err != nil {
			return err
		}
		s.printf("%-6d %20d\n", d, lats[i])
		s.cycles(fmt.Sprintf("read_hops%d", d), lats[i])
	}
	last := len(dists) - 1
	perHop := float64(lats[last]-lats[0]) / float64(2*(dists[last]-dists[0]))
	s.printf("marginal cost: %.2f cycles per hop per direction\n", perHop)
	return nil
}
