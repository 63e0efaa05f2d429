package comm

import (
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
)

func unit(role, action, source string) Info {
	return Info{
		DataSource:  source,
		Role:        role,
		Action:      action,
		Description: "did " + action,
		Content:     "payload of " + action,
		Kind:        KindText,
	}
}

func TestInfoValidate(t *testing.T) {
	if err := unit("SQL Agent", "generate_sql_query", "db/t").Validate(); err != nil {
		t.Errorf("valid unit rejected: %v", err)
	}
	bad := []Info{
		{Action: "a", Content: "c"},
		{Role: "r", Content: "c"},
		{Role: "r", Action: "a"},
	}
	for i, u := range bad {
		if err := u.Validate(); err == nil {
			t.Errorf("unit %d should be invalid", i)
		}
	}
}

func TestInfoJSONAndUnstructured(t *testing.T) {
	u := unit("SQL Agent", "generate_sql_query", "sales_db/23_customer_bg")
	if b, err := json.Marshal(u); err != nil || !strings.Contains(string(b), `"data_source"`) {
		t.Error("JSON missing field names")
	}
	flat := u.Unstructured()
	if strings.Contains(flat, `"data_source"`) {
		t.Error("unstructured form should lose field structure")
	}
	if !strings.Contains(flat, "SQL Agent") {
		t.Error("unstructured form should keep content")
	}
}

func TestBufferStoreAndRetrieve(t *testing.T) {
	b := NewBuffer()
	for i := 0; i < 3; i++ {
		if err := b.Store(unit("A", fmt.Sprintf("act%d", i), "src")); err != nil {
			t.Fatal(err)
		}
	}
	if len(b.entries) != 3 {
		t.Errorf("len = %d", len(b.entries))
	}
	if got := b.ByRoles("A"); len(got) != 3 {
		t.Errorf("ByRoles = %d", len(got))
	}
	if got := b.ByRoles("B"); len(got) != 0 {
		t.Errorf("ByRoles(B) = %d", len(got))
	}
}

func TestBufferAssignsTimestamps(t *testing.T) {
	b := NewBuffer()
	_ = b.Store(unit("A", "a1", "s"))
	_ = b.Store(unit("A", "a2", "s"))
	all := b.All()
	if all[0].Timestamp >= all[1].Timestamp {
		t.Errorf("timestamps not monotonic: %d, %d", all[0].Timestamp, all[1].Timestamp)
	}
}

func TestBufferEvictsOutdated(t *testing.T) {
	b := NewBuffer()
	first := unit("SQL Agent", "generate_sql_query", "db/t")
	first.Content = "SELECT 1"
	_ = b.Store(first)
	updated := unit("SQL Agent", "generate_sql_query", "db/t")
	updated.Content = "SELECT 2 -- fixed after execution feedback"
	_ = b.Store(updated)
	if len(b.entries) != 1 {
		t.Fatalf("len = %d, want 1 (outdated evicted)", len(b.entries))
	}
	if got := b.All()[0].Content; !strings.Contains(got, "SELECT 2") {
		t.Errorf("kept the outdated unit: %q", got)
	}
}

func TestBufferRejectsInvalid(t *testing.T) {
	b := NewBuffer()
	if err := b.Store(Info{}); err == nil {
		t.Error("invalid unit accepted")
	}
}

func TestBufferConcurrentSafety(t *testing.T) {
	b := NewBuffer()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				_ = b.Store(unit(fmt.Sprintf("A%d", g), fmt.Sprintf("act%d", i), "s"))
				_ = b.All()
				_ = b.ByRoles("A0")
			}
		}(g)
	}
	wg.Wait()
	if len(b.entries) != 8*50 {
		t.Errorf("len = %d, want 400", len(b.entries))
	}
}

func TestFSMStates(t *testing.T) {
	f := NewFSM()
	f.AddAgent("SQL Agent")
	if f.agents["SQL Agent"] != StateWait {
		t.Error("new agents start in Wait")
	}
	if err := f.SetState("SQL Agent", StateExecution); err != nil {
		t.Fatal(err)
	}
	if err := f.SetState("SQL Agent", StateWait); err != nil {
		t.Fatal(err)
	}
	if err := f.SetState("SQL Agent", StateFinish); err != nil {
		t.Fatal(err)
	}
	if err := f.SetState("SQL Agent", StateExecution); err == nil {
		t.Error("Finish -> Execution should be invalid")
	}
	if err := f.SetState("ghost", StateWait); err == nil {
		t.Error("unknown agent should error")
	}
}

func TestFSMTopoOrder(t *testing.T) {
	f := NewFSM()
	f.AddEdge("SQL Agent", "Anomaly Agent")
	f.AddEdge("SQL Agent", "Causal Agent")
	f.AddEdge("Anomaly Agent", "Chart Agent")
	f.AddEdge("Causal Agent", "Chart Agent")
	order, err := f.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	pos := map[string]int{}
	for i, a := range order {
		pos[a] = i
	}
	if !(pos["SQL Agent"] < pos["Anomaly Agent"] && pos["Anomaly Agent"] < pos["Chart Agent"] &&
		pos["SQL Agent"] < pos["Causal Agent"] && pos["Causal Agent"] < pos["Chart Agent"]) {
		t.Errorf("order violates dependencies: %v", order)
	}
}

func TestFSMCycleDetection(t *testing.T) {
	f := NewFSM()
	f.AddEdge("A", "B")
	f.AddEdge("B", "A")
	if _, err := f.TopoOrder(); err == nil {
		t.Error("cycle not detected")
	}
}

// scriptedAgent is a test double that succeeds after a fixed number of
// failures and records the inputs it saw.
type scriptedAgent struct {
	name       string
	failUntil  int
	seenInputs [][]Info
}

func (a *scriptedAgent) Name() string { return a.name }

func (a *scriptedAgent) Execute(query string, inputs []Info, attempt int) (Info, error) {
	a.seenInputs = append(a.seenInputs, inputs)
	if attempt < a.failUntil {
		return Info{}, errors.New("transient failure")
	}
	return Info{
		DataSource: "db/t", Role: a.name, Action: "work",
		Description: "completed", Content: "output of " + a.name, Kind: KindText,
	}, nil
}

func TestProxyRunsPlanInOrder(t *testing.T) {
	plan := NewFSM()
	plan.AddEdge("SQL Agent", "Chart Agent")
	sql := &scriptedAgent{name: "SQL Agent"}
	chart := &scriptedAgent{name: "Chart Agent"}
	p := NewProxy(DefaultProxyConfig())
	out, stats, err := p.Run(plan, map[string]Agent{"SQL Agent": sql, "Chart Agent": chart}, "q")
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Succeeded || len(out) != 2 {
		t.Fatalf("stats=%+v out=%d", stats, len(out))
	}
	// The chart agent must have received exactly the SQL agent's unit.
	last := chart.seenInputs[0]
	if len(last) != 1 || last[0].Role != "SQL Agent" {
		t.Errorf("chart inputs = %+v", last)
	}
	for _, name := range plan.order {
		if plan.agents[name] != StateFinish {
			t.Errorf("%s ended in %s, want Finish", name, plan.agents[name])
		}
	}
}

func TestProxyWithoutFSMForwardsEverything(t *testing.T) {
	plan := NewFSM()
	plan.AddEdge("A", "B")
	plan.AddEdge("B", "C")
	cfg := DefaultProxyConfig()
	cfg.UseFSM = false
	p := NewProxy(cfg)
	a, b, c := &scriptedAgent{name: "A"}, &scriptedAgent{name: "B"}, &scriptedAgent{name: "C"}
	_, stats, err := p.Run(plan, map[string]Agent{"A": a, "B": b, "C": c}, "q")
	if err != nil {
		t.Fatal(err)
	}
	// C should have seen both A's and B's units (all of the buffer).
	if len(c.seenInputs[0]) != 2 {
		t.Errorf("C saw %d units, want 2", len(c.seenInputs[0]))
	}
	// More units forwarded than the FSM would send (A->B:1, B->C:1 = 2;
	// here B gets 1 and C gets 2 = 3).
	if stats.ForwardedUnits != 3 {
		t.Errorf("forwarded = %d, want 3", stats.ForwardedUnits)
	}
}

func TestProxyUnstructuredFlattens(t *testing.T) {
	plan := NewFSM()
	plan.AddEdge("A", "B")
	cfg := DefaultProxyConfig()
	cfg.Structured = false
	p := NewProxy(cfg)
	a, b := &scriptedAgent{name: "A"}, &scriptedAgent{name: "B"}
	out, _, err := p.Run(plan, map[string]Agent{"A": a, "B": b}, "q")
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range out {
		if u.Action != "narrative" || u.Kind != KindText {
			t.Errorf("unit not flattened: %+v", u)
		}
	}
}

func TestProxyRetriesUpToBudget(t *testing.T) {
	plan := NewFSM()
	plan.AddAgent("Flaky")
	p := NewProxy(DefaultProxyConfig())
	flaky := &scriptedAgent{name: "Flaky", failUntil: 3}
	_, stats, err := p.Run(plan, map[string]Agent{"Flaky": flaky}, "q")
	if err != nil {
		t.Fatal(err)
	}
	if stats.Retries != 3 || stats.AgentCalls != 4 {
		t.Errorf("stats = %+v", stats)
	}
}

func TestProxyFailsWhenBudgetExhausted(t *testing.T) {
	plan := NewFSM()
	plan.AddAgent("Broken")
	p := NewProxy(DefaultProxyConfig())
	broken := &scriptedAgent{name: "Broken", failUntil: 99}
	_, stats, err := p.Run(plan, map[string]Agent{"Broken": broken}, "q")
	if err == nil {
		t.Fatal("expected failure")
	}
	if stats.Succeeded {
		t.Error("stats should report failure")
	}
	if stats.AgentCalls != 5 {
		t.Errorf("calls = %d, want 5 (the paper's budget)", stats.AgentCalls)
	}
}

func TestProxyUnknownAgent(t *testing.T) {
	plan := NewFSM()
	plan.AddAgent("Ghost")
	p := NewProxy(DefaultProxyConfig())
	if _, _, err := p.Run(plan, map[string]Agent{}, "q"); err == nil {
		t.Error("expected unknown-agent error")
	}
}
