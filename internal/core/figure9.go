package core

// Figure 9 of the paper: timelines for remote read and write accesses. The
// experiment reruns the Remote Cache Hit scenario of Table 1 with tracing
// enabled and reconstructs the per-phase cycle stamps on both nodes:
// load/store issue, LTLB miss event, request message send, message arrival
// and handler execution at the home node, reply delivery, and the final
// register writeback (reads).

import (
	"fmt"
	"strings"

	"repro/internal/trace"
)

// Phase is one labelled point on a remote access timeline.
type Phase struct {
	Cycle int64 // relative to the access issue
	Node  int
	Label string
}

// Figure9Result is a reconstructed remote access timeline.
type Figure9Result struct {
	Kind   string // "read" or "write"
	Phases []Phase
	Total  int64
}

// Figure9 reproduces both timelines.
func Figure9() (read, write *Figure9Result, err error) {
	if read, err = figure9One(false); err != nil {
		return nil, nil, err
	}
	if write, err = figure9One(true); err != nil {
		return nil, nil, err
	}
	return read, write, nil
}

func figure9One(isWrite bool) (*Figure9Result, error) {
	s, err := NewSim(Options{Nodes: 2})
	if err != nil {
		return nil, err
	}
	addr := s.HomeBase(1) + 16
	if err := stageAccess(s, RemoteCacheHit, addr); err != nil {
		return nil, err
	}
	s.Recorder.Reset()
	start := s.M.Cycle

	kind := "read"
	if isWrite {
		kind = "write"
		if _, err := timeWrite(s, RemoteCacheHit, addr); err != nil {
			return nil, err
		}
	} else {
		if _, err := timeRead(s, addr); err != nil {
			return nil, err
		}
	}

	res := &Figure9Result{Kind: kind}
	issue, ok := s.Recorder.First(start, "mem-issue")
	if !ok {
		return nil, fmt.Errorf("figure9: no mem-issue event")
	}
	base := issue.Cycle
	add := func(e trace.Event, label string, ok bool) {
		if ok {
			res.Phases = append(res.Phases, Phase{e.Cycle - base, int(e.Node), label})
		}
	}
	opName := map[bool]string{false: "LOAD", true: "STORE"}[isWrite]
	add(issue, opName+" issues", true)

	ev, ok := s.Recorder.First(base, "event")
	add(ev, "LTLB miss event enqueued", ok)
	snd, ok := s.Recorder.FirstMatch(base, func(e trace.Event) bool {
		return e.Node == 0 && e.Name() == "send"
	})
	add(snd, "LTLB miss handler completes; "+opName+" message sent", ok)
	rcv, ok := s.Recorder.FirstMatch(base, func(e trace.Event) bool {
		return e.Node == 1 && e.Kind == trace.MsgRecv
	})
	add(rcv, "message received", ok)
	exec, ok := firstComplete(s.Recorder, base, 1, addr, false)
	add(exec, "execute "+strings.ToLower(opName), ok)

	if isWrite {
		if !ok {
			return nil, fmt.Errorf("figure9: store never completed at home")
		}
		res.Total = exec.Cycle - base
	} else {
		reply, rok := s.Recorder.FirstMatch(base, func(e trace.Event) bool {
			return e.Node == 1 && e.Name() == "send"
		})
		add(reply, "reply message sent", rok)
		rrecv, rok2 := s.Recorder.FirstMatch(base, func(e trace.Event) bool {
			return e.Node == 0 && e.Kind == trace.MsgRecv
		})
		add(rrecv, "reply received", rok2)
		wb, rok3 := s.Recorder.FirstMatch(base, func(e trace.Event) bool {
			return e.Node == 0 && e.Kind == trace.RSTW
		})
		add(wb, "data written to destination register", rok3)
		if !rok3 {
			return nil, fmt.Errorf("figure9: no register writeback observed")
		}
		res.Total = wb.Cycle - base
	}
	return res, nil
}

// Format renders the timeline like the paper's figure.
func (r *Figure9Result) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "REMOTE %s TIMELINE (total %d cycles)\n", strings.ToUpper(r.Kind), r.Total)
	fmt.Fprintf(&b, "%8s  %-6s  %s\n", "cycle", "node", "phase")
	for _, p := range r.Phases {
		fmt.Fprintf(&b, "%8d  NODE %d  %s\n", p.Cycle, p.Node, p.Label)
	}
	return b.String()
}
