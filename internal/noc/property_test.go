package noc

// Property tests: every injected message is delivered exactly once, intact,
// to its addressed destination, regardless of traffic pattern; and
// dimension-order routes use exactly the Manhattan distance. The facts the
// dist engine's lookahead window rests on (DESIGN.md, "The distributed
// engine") are here too.

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/isa"
)

func TestExactlyOnceDeliveryUnderRandomTraffic(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := New(Coord{3, 3, 2}, DefaultConfig())
		type key struct {
			dip uint64
			dst Coord
		}
		want := map[key]int{}
		const msgs = 200
		now := int64(0)
		for i := 0; i < msgs; i++ {
			src := n.CoordOf(rng.Intn(n.NumNodes()))
			dst := n.CoordOf(rng.Intn(n.NumNodes()))
			m := &Message{
				Pri:  rng.Intn(NumPriorities),
				Src:  src,
				Dst:  dst,
				DIP:  uint64(i),
				Body: []isa.Word{isa.W(uint64(i) * 3)},
			}
			want[key{uint64(i), dst}]++
			n.Inject(now, m)
			if rng.Intn(3) == 0 {
				n.Step(now)
				now++
			}
		}
		for i := 0; i < 10000 && n.InFlight() > 0; i++ {
			n.Step(now)
			now++
		}
		if n.InFlight() != 0 {
			t.Fatalf("seed %d: %d messages stuck in flight", seed, n.InFlight())
		}
		got := 0
		for node := 0; node < n.NumNodes(); node++ {
			c := n.CoordOf(node)
			for pri := 0; pri < NumPriorities; pri++ {
				for {
					m := n.Pop(c, pri)
					if m == nil {
						break
					}
					k := key{m.DIP, c}
					if want[k] == 0 {
						t.Fatalf("seed %d: message %d delivered to wrong node %v", seed, m.DIP, c)
					}
					want[k]--
					if m.Body[0].Bits != m.DIP*3 {
						t.Fatalf("seed %d: message %d body corrupted", seed, m.DIP)
					}
					if m.Hops != Distance(m.Src, m.Dst) {
						t.Fatalf("seed %d: message %d took %d hops, want %d",
							seed, m.DIP, m.Hops, Distance(m.Src, m.Dst))
					}
					got++
				}
			}
		}
		if got != msgs {
			t.Fatalf("seed %d: delivered %d/%d", seed, got, msgs)
		}
	}
}

// randomTraffic is a schedule of injections: per cycle, the messages to
// inject (in order) before that cycle's Step. DIPs number the messages
// from base, in injection order.
func randomTraffic(rng *rand.Rand, n *Network, from, to int64, perCycle int, base uint64) map[int64][]*Message {
	sched := map[int64][]*Message{}
	dip := base
	for c := from; c < to; c++ {
		for k := rng.Intn(perCycle + 1); k > 0; k-- {
			src := n.CoordOf(rng.Intn(n.NumNodes()))
			dst := n.CoordOf(rng.Intn(n.NumNodes()))
			if rng.Intn(4) == 0 {
				dst = src // self-sends: the tight case of the lookahead bound
			}
			sched[c] = append(sched[c], &Message{Pri: rng.Intn(NumPriorities), Src: src, Dst: dst, DIP: dip})
			dip++
		}
	}
	return sched
}

// cloneTraffic copies a schedule's messages, so one schedule can drive
// several networks (Inject stamps the messages it launches).
func cloneTraffic(sched map[int64][]*Message) map[int64][]*Message {
	c := map[int64][]*Message{}
	for cyc, ms := range sched {
		for _, m := range ms {
			c[cyc] = append(c[cyc], m.Clone())
		}
	}
	return c
}

// drive injects sched and steps n until it is empty, calling delivered
// after every Step with the messages that Step delivered. It steps in
// windows of w cycles the way the dist hub does: Steps t … t+w-2 first,
// then each cycle's injections and consumptions in cycle order, then
// Step(t+w-1); with w = 1 that is the engines' order, inject then Step,
// every cycle. consume (nil: none) is asked at every cycle, for every
// queue, how many of the messages a chip could see then — delivered by a
// Step before the cycle — to drop. Every Step's deliveries must be
// named by DeliveredNodes, each node once.
func drive(t *testing.T, n *Network, sched map[int64][]*Message, w int64,
	consume func(now int64, node, pri, visible int) int, delivered func(now int64, m *Message)) {
	t.Helper()
	left := 0
	for _, ms := range sched {
		left += len(ms)
	}
	seen := make([][NumPriorities]int, n.NumNodes())
	step := func(now int64) {
		unnamed := n.Delivered
		n.Step(now)
		for _, node := range n.DeliveredNodes() {
			fresh := 0
			for pri := 0; pri < NumPriorities; pri++ {
				q := n.ArrivalsAt(node, pri)
				for _, m := range q[seen[node][pri]:] {
					delivered(now, m)
					fresh++
				}
				seen[node][pri] = len(q)
			}
			if fresh == 0 {
				t.Fatalf("DeliveredNodes after Step(%d) names node %d, which got nothing new (or names it twice)", now, node)
			}
			unnamed += uint64(fresh)
		}
		if unnamed != n.Delivered {
			t.Fatalf("Step(%d) made %d deliveries to nodes DeliveredNodes does not name", now, n.Delivered-unnamed)
		}
	}
	for start := int64(0); left > 0 || n.InFlight() > 0; start += w {
		if start > 100000 {
			t.Fatalf("network did not drain: %d in flight", n.InFlight())
		}
		end := start + w
		for now := start; now < end-1; now++ {
			step(now)
		}
		for now := start; now < end; now++ {
			for _, m := range sched[now] {
				n.Inject(now, m)
				left--
			}
			for node := 0; consume != nil && node < n.NumNodes(); node++ {
				for pri := 0; pri < NumPriorities; pri++ {
					q := n.ArrivalsAt(node, pri)
					visible := 0
					for visible < len(q) && q[visible].DeliveredAt < now {
						visible++
					}
					if k := consume(now, node, pri, visible); k > 0 {
						n.DropArrivals(node, pri, k)
						seen[node][pri] -= k
					}
				}
			}
		}
		step(end - 1)
	}
}

// TestDeliveryNeverBeforeLookahead pins the first fact the dist window
// rests on: over random meshes, timings and traffic, no message is
// delivered by a Step earlier than InjectedAt+InjectLat, so none is
// visible to a chip (which pops a delivery the cycle after the Step) before
// InjectedAt+Lookahead(); a self-send sits exactly on the bound. And the
// flights of a priority move in injection order, so two messages on the
// same route arrive in the order they were sent.
func TestDeliveryNeverBeforeLookahead(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cfg := Config{InjectLat: rng.Int63n(5), HopLat: 1 + rng.Int63n(2), DeliverLat: rng.Int63n(3)}
		if seed == 1 {
			cfg = DefaultConfig()
		}
		n := New(Coord{1 + rng.Intn(4), 1 + rng.Intn(3), 1 + rng.Intn(2)}, cfg)
		sched := randomTraffic(rng, n, 0, 60, 6, 0)
		type route struct {
			src, dst Coord
			pri      int
		}
		last := map[route]uint64{}
		drive(t, n, sched, 1, nil, func(now int64, m *Message) {
			if m.DeliveredAt != now {
				t.Fatalf("seed %d: message %d delivered by Step(%d) records DeliveredAt %d", seed, m.DIP, now, m.DeliveredAt)
			}
			if now < m.InjectedAt+cfg.InjectLat || now+1 < m.InjectedAt+n.Lookahead() {
				t.Fatalf("seed %d (%+v): message %d injected at %d delivered by Step(%d), visible at %d: before the lookahead %d",
					seed, cfg, m.DIP, m.InjectedAt, now, now+1, n.Lookahead())
			}
			if m.Src == m.Dst && now != m.InjectedAt+cfg.InjectLat {
				t.Fatalf("seed %d: self-send %d injected at %d delivered at %d, want exactly %d",
					seed, m.DIP, m.InjectedAt, now, m.InjectedAt+cfg.InjectLat)
			}
			r := route{m.Src, m.Dst, m.Pri}
			if prev, ok := last[r]; ok && m.Seq < prev {
				t.Fatalf("seed %d: message seq %d overtook seq %d on route %v", seed, prev, m.Seq, r)
			}
			last[r] = m.Seq
		})
	}
	if l := New(Coord{1, 1, 1}, DefaultConfig()).Lookahead(); l != 3 {
		t.Errorf("default Lookahead() = %d, want InjectLat+1 = 3", l)
	}
}

// TestNewerTrafficNeverDelaysOlder pins the second fact: Step walks each
// priority's flights oldest first and grants links per priority, so
// injecting a batch of newer messages never changes when or by how many
// hops an older message arrives, nor the order older messages reach a
// node's queue.
func TestNewerTrafficNeverDelaysOlder(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		dims := Coord{2 + rng.Intn(3), 1 + rng.Intn(2), 1}
		older := randomTraffic(rng, New(dims, DefaultConfig()), 0, 30, 8, 0)
		newer := randomTraffic(rng, New(dims, DefaultConfig()), 30, 60, 12, 1<<20)
		type arrival struct {
			at   int64
			hops int
		}
		run := func(sched map[int64][]*Message) (map[uint64]arrival, [][NumPriorities][]uint64) {
			n := New(dims, DefaultConfig())
			got := map[uint64]arrival{}
			order := make([][NumPriorities][]uint64, n.NumNodes())
			drive(t, n, sched, 1, nil, func(now int64, m *Message) {
				if m.DIP < 1<<20 {
					got[m.DIP] = arrival{m.DeliveredAt, m.Hops}
					node := n.Index(m.Dst)
					order[node][m.Pri] = append(order[node][m.Pri], m.DIP)
				}
			})
			return got, order
		}
		alone, aloneOrder := run(cloneTraffic(older))
		both := cloneTraffic(older)
		for cyc, ms := range newer {
			both[cyc] = append(both[cyc], ms...) // after the older ones injected that cycle
		}
		mixed, mixedOrder := run(both)
		for dip, a := range alone {
			if mixed[dip] != a {
				t.Fatalf("seed %d: older message %d arrives %+v alone, %+v with newer traffic", seed, dip, a, mixed[dip])
			}
		}
		for node := range aloneOrder {
			for pri := range aloneOrder[node] {
				if !slices.Equal(aloneOrder[node][pri], mixedOrder[node][pri]) {
					t.Fatalf("seed %d: node %d pri %d older arrival order %v alone, %v with newer traffic",
						seed, node, pri, aloneOrder[node][pri], mixedOrder[node][pri])
				}
			}
		}
	}
}

// TestHubWindowOrderMatchesCycleOrder pins the order the dist hub steps
// a window of W ≤ Lookahead() cycles in: Steps t … end-2 first, then each
// cycle's injections and consumptions in cycle order, then Step(end-1).
// Over random meshes, timings, traffic and consumption, every message
// arrives at the same cycle, over the same hops, with the same Seq and in
// the same per-queue order as when each cycle's injections precede its
// Step, and the counters agree. At W = Lookahead()+1 a window's own
// injections could move before they are made, and some seed shows it.
func TestHubWindowOrderMatchesCycleOrder(t *testing.T) {
	type arrival struct {
		at   int64
		hops int
		seq  uint64
	}
	type outcome struct {
		arrivals                  map[uint64]arrival
		order                     [][NumPriorities][]uint64
		injected, delivered, hops uint64
	}
	consume := func(now int64, node, pri, visible int) int {
		return min(visible, int(now+int64(3*node+pri))%3)
	}
	widerDiffers := false
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cfg := Config{InjectLat: rng.Int63n(5), HopLat: 1 + rng.Int63n(2), DeliverLat: rng.Int63n(3)}
		if seed == 1 {
			cfg = DefaultConfig()
		}
		dims := Coord{1 + rng.Intn(4), 1 + rng.Intn(3), 1 + rng.Intn(2)}
		sched := randomTraffic(rng, New(dims, cfg), 0, 60, 6, 0)
		run := func(w int64) outcome {
			n := New(dims, cfg)
			o := outcome{arrivals: map[uint64]arrival{}, order: make([][NumPriorities][]uint64, n.NumNodes())}
			drive(t, n, cloneTraffic(sched), w, consume, func(now int64, m *Message) {
				o.arrivals[m.DIP] = arrival{m.DeliveredAt, m.Hops, m.Seq}
				node := n.Index(m.Dst)
				o.order[node][m.Pri] = append(o.order[node][m.Pri], m.DIP)
			})
			o.injected, o.delivered, o.hops = n.Injected, n.Delivered, n.TotalHops
			return o
		}
		want := run(1)
		lookahead := New(dims, cfg).Lookahead()
		for w := int64(2); w <= lookahead; w++ {
			if got := run(w); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d (%+v): windows of %d cycles differ from cycle-by-cycle stepping", seed, cfg, w)
			}
		}
		if !reflect.DeepEqual(run(lookahead+1), want) {
			widerDiffers = true
		}
	}
	if !widerDiffers {
		t.Fatal("windows of Lookahead()+1 cycles matched cycle-by-cycle stepping on every seed: the property is vacuous")
	}
}

func TestLatencyBoundedByLoad(t *testing.T) {
	// With k messages sharing one link, the last delivery is delayed by at
	// least k-1 cycles (one message per link per cycle) and the network
	// still drains.
	n := New(Coord{2, 1, 1}, DefaultConfig())
	const k = 10
	for i := 0; i < k; i++ {
		n.Inject(0, &Message{Src: Coord{0, 0, 0}, Dst: Coord{1, 0, 0}, DIP: uint64(i)})
	}
	var last int64
	for now := int64(0); now < 200; now++ {
		n.Step(now)
	}
	for {
		m := n.Pop(Coord{1, 0, 0}, 0)
		if m == nil {
			break
		}
		if m.DeliveredAt > last {
			last = m.DeliveredAt
		}
	}
	minLast := int64(5 + k - 1) // 5-cycle base + serialization
	if last < minLast {
		t.Errorf("last delivery at %d, want >= %d under contention", last, minLast)
	}
}
