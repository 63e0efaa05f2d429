package comm

import (
	"fmt"
)

// Agent is anything the proxy can dispatch a subtask to. Implementations
// live in the agent package; the communication layer only needs this
// contract.
type Agent interface {
	// Name identifies the agent ("SQL Agent", "Chart Agent", ...).
	Name() string
	// Execute performs the agent's subtask for the user query given the
	// information units forwarded by the proxy, returning the produced
	// unit. attempt counts retries (0-based) so implementations can model
	// execution-feedback refinement.
	Execute(query string, inputs []Info, attempt int) (Info, error)
}

// ProxyConfig controls the communication mechanisms under test. The
// defaults (both true) are DataLab's full configuration; the Table III
// ablations disable one each.
type ProxyConfig struct {
	// UseFSM gates selective retrieval: when false (ablation S1) every
	// agent receives the entire buffer.
	UseFSM bool
	// Structured gates the information format: when false (ablation S2)
	// units travel as free-form NL, losing field boundaries.
	Structured bool
	// MaxCallsPerAgent bounds retries; the paper's success-rate metric
	// uses 5.
	MaxCallsPerAgent int
}

// DefaultProxyConfig is DataLab's production configuration.
func DefaultProxyConfig() ProxyConfig {
	return ProxyConfig{UseFSM: true, Structured: true, MaxCallsPerAgent: 5}
}

// RunStats reports what a proxy run consumed and produced.
type RunStats struct {
	AgentCalls     int
	Retries        int
	ForwardedUnits int
	Succeeded      bool
}

// Proxy is the hub agent that interacts with the user, allocates subtasks,
// and mediates all inter-agent information flow (§V, Workflow).
type Proxy struct {
	Config ProxyConfig
	Buffer *Buffer
}

// NewProxy creates a proxy with a fresh buffer.
func NewProxy(cfg ProxyConfig) *Proxy {
	return &Proxy{Config: cfg, Buffer: NewBuffer(8)}
}

// Run executes the plan: steps 1-7 of Figure 5. agents maps agent names
// to implementations; every FSM node must be present. The returned units
// are the final buffer contents in completion order.
func (p *Proxy) Run(plan *FSM, agents map[string]Agent, query string) ([]Info, RunStats, error) {
	var stats RunStats
	order, err := plan.TopoOrder()
	if err != nil {
		return nil, stats, err
	}
	for _, name := range order {
		if _, ok := agents[name]; !ok {
			return nil, stats, fmt.Errorf("comm: plan references unknown agent %q", name)
		}
	}

	for _, name := range order {
		agent := agents[name]
		inputs := p.selectInputs(plan, name)
		stats.ForwardedUnits += len(inputs)
		if err := plan.SetState(name, StateExecution); err != nil {
			return nil, stats, err
		}

		var produced Info
		var execErr error
		success := false
		for attempt := 0; attempt < p.Config.MaxCallsPerAgent; attempt++ {
			stats.AgentCalls++
			if attempt > 0 {
				stats.Retries++
			}
			produced, execErr = agent.Execute(query, inputs, attempt)
			if execErr == nil {
				success = true
				break
			}
		}
		if !success {
			// The subtask could not be completed within budget: the whole
			// question fails (the Success Rate metric counts this).
			_ = plan.SetState(name, StateFinish)
			return p.Buffer.All(), stats, fmt.Errorf("comm: agent %q exhausted %d calls: %w",
				name, p.Config.MaxCallsPerAgent, execErr)
		}
		if !p.Config.Structured {
			// Ablation S2: flatten to free-form NL. Downstream consumers
			// lose the field structure (DataSource/Action become prose)
			// and the typed payload with it.
			produced = Info{
				Role:        produced.Role,
				Action:      "narrative",
				Description: produced.Unstructured(),
				Content:     produced.Unstructured(),
				Kind:        KindText,
				DataSource:  produced.DataSource,
			}
		}
		if err := p.Buffer.Store(produced); err != nil {
			return nil, stats, err
		}
		if err := plan.SetState(name, StateWait); err != nil {
			return nil, stats, err
		}
		if err := plan.SetState(name, StateFinish); err != nil {
			return nil, stats, err
		}
	}
	stats.Succeeded = true
	return p.Buffer.All(), stats, nil
}

// selectInputs implements Selective Retrieval: with the FSM enabled, the
// agent receives only its in-edge producers' units; without it (ablation
// S1) it receives everything in the buffer.
func (p *Proxy) selectInputs(plan *FSM, agent string) []Info {
	if !p.Config.UseFSM {
		return p.Buffer.All()
	}
	producers := plan.Inputs(agent)
	if len(producers) == 0 {
		return nil
	}
	return p.Buffer.ByRoles(producers...)
}
