package comm

import (
	"fmt"
	"sort"
)

// AgentState is the per-agent state in the execution FSM (§V, Figure 5).
type AgentState uint8

// The three agent states.
const (
	StateWait AgentState = iota
	StateExecution
	StateFinish
)

// String implements fmt.Stringer.
func (s AgentState) String() string {
	switch s {
	case StateWait:
		return "Wait"
	case StateExecution:
		return "Execution"
	case StateFinish:
		return "Finish"
	default:
		return fmt.Sprintf("AgentState(%d)", uint8(s))
	}
}

// FSM is an execution plan: nodes are agents, edges are information
// transition directions. The proxy agent generates one per user query,
// then drives subtask execution along a topological order, forwarding to
// each agent only the information its in-edges designate.
type FSM struct {
	agents map[string]AgentState
	// inputs[a] lists the agents whose outputs a consumes.
	inputs map[string][]string
	order  []string // insertion order, for deterministic iteration
}

// NewFSM returns an empty plan.
func NewFSM() *FSM {
	return &FSM{agents: map[string]AgentState{}, inputs: map[string][]string{}}
}

// AddAgent registers an agent node in the Wait state.
func (f *FSM) AddAgent(name string) {
	if _, ok := f.agents[name]; ok {
		return
	}
	f.agents[name] = StateWait
	f.order = append(f.order, name)
}

// AddEdge declares that to consumes from's output. Both endpoints are
// added implicitly.
func (f *FSM) AddEdge(from, to string) {
	f.AddAgent(from)
	f.AddAgent(to)
	f.inputs[to] = append(f.inputs[to], from)
}

// Inputs returns the producers feeding the given agent.
func (f *FSM) Inputs(name string) []string {
	out := make([]string, len(f.inputs[name]))
	copy(out, f.inputs[name])
	return out
}

// SetState transitions an agent; invalid transitions error so protocol
// violations surface in tests.
func (f *FSM) SetState(name string, s AgentState) error {
	cur, ok := f.agents[name]
	if !ok {
		return fmt.Errorf("comm: unknown agent %q", name)
	}
	valid := false
	switch cur {
	case StateWait:
		valid = s == StateExecution || s == StateFinish
	case StateExecution:
		valid = s == StateWait || s == StateFinish
	case StateFinish:
		valid = s == StateFinish
	}
	if !valid {
		return fmt.Errorf("comm: invalid transition %s -> %s for %q", cur, s, name)
	}
	f.agents[name] = s
	return nil
}

// TopoOrder returns agents in dependency order (producers before
// consumers). An error is returned on cycles — execution plans are DAGs.
func (f *FSM) TopoOrder() ([]string, error) {
	indeg := map[string]int{}
	for _, a := range f.order {
		indeg[a] = 0
	}
	consumers := map[string][]string{}
	for to, froms := range f.inputs {
		for _, from := range froms {
			indeg[to]++
			consumers[from] = append(consumers[from], to)
		}
	}
	// Deterministic queue: seed with zero-indegree agents in insertion
	// order, append new ready agents sorted.
	var queue []string
	for _, a := range f.order {
		if indeg[a] == 0 {
			queue = append(queue, a)
		}
	}
	var out []string
	for len(queue) > 0 {
		a := queue[0]
		queue = queue[1:]
		out = append(out, a)
		next := consumers[a]
		sort.Strings(next)
		for _, c := range next {
			indeg[c]--
			if indeg[c] == 0 {
				queue = append(queue, c)
			}
		}
	}
	if len(out) != len(f.order) {
		return nil, fmt.Errorf("comm: execution plan has a cycle")
	}
	return out, nil
}
