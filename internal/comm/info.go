// Package comm implements DataLab's Inter-Agent Communication module
// (§V): the structured six-field information unit format, the dynamically
// growing shared information buffer with outdated-entry eviction, and the
// FSM-based selective-retrieval protocol the proxy agent drives.
package comm

import (
	"fmt"
	"strings"
	"sync"
)

// InfoKind loosely types the Content payload so consumers can parse it.
type InfoKind string

// Common content kinds flowing between BI agents.
const (
	KindSQL   InfoKind = "sql"
	KindCode  InfoKind = "code"
	KindChart InfoKind = "chart"
	KindText  InfoKind = "text"
)

// Info is one structured information unit (§V, Information Format
// Structure). All inter-agent messages take this shape; the Table III
// ablation S2 replaces it with free-form NL.
//
// The six fields and Kind are what a reader sees. Payload is the same
// product in typed form, for the next agent: whatever the producer built
// (a spec, rows) travels as the value it is, so no consumer parses Content
// back into it. It is not rendered — JSON encoding skips it — and the S2
// flattening drops it with the other field boundaries.
type Info struct {
	DataSource  string   `json:"data_source"` // dataset manipulated, e.g. sales_db/23_customer_bg
	Role        string   `json:"role"`        // producing agent, e.g. "SQL Agent"
	Action      string   `json:"action"`      // behaviour, e.g. "generate_sql_query"
	Description string   `json:"description"` // summary of what was done
	Content     string   `json:"content"`     // the payload itself
	Timestamp   int64    `json:"timestamp"`   // logical completion time
	Kind        InfoKind `json:"kind,omitempty"`
	Payload     any      `json:"-"`
}

// Validate checks that the mandatory fields are present.
func (i Info) Validate() error {
	if i.Role == "" {
		return fmt.Errorf("comm: info unit missing role")
	}
	if i.Action == "" {
		return fmt.Errorf("comm: info unit missing action")
	}
	if i.Content == "" && i.Description == "" {
		return fmt.Errorf("comm: info unit carries nothing")
	}
	return nil
}

// Unstructured renders the unit as the free-form NL a no-formatting
// baseline would emit (ablation S2 of Table III). Field boundaries are
// deliberately lost: that information loss is what the ablation measures.
func (i Info) Unstructured() string {
	return fmt.Sprintf("%s did %s on %s. %s %s",
		i.Role, strings.ReplaceAll(i.Action, "_", " "), i.DataSource, i.Description, i.Content)
}

// Buffer is the shared information buffer: a store that grows with what
// the agents produce and evicts superseded entries (§V, Shared Information
// Buffer). It is safe for concurrent producers/consumers.
type Buffer struct {
	mu      sync.RWMutex
	entries []Info
	// clock assigns logical timestamps when producers do not.
	clock int64
}

// NewBuffer creates an empty buffer.
func NewBuffer() *Buffer { return &Buffer{} }

// Store appends a unit, assigning a logical timestamp if absent. When an
// agent re-reports the same (Role, Action, DataSource) triple — e.g. after
// execution feedback — the outdated unit is evicted first.
func (b *Buffer) Store(info Info) error {
	if err := info.Validate(); err != nil {
		return err
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.clock++
	if info.Timestamp == 0 {
		info.Timestamp = b.clock
	}
	// Evict the superseded version, if any.
	for idx := range b.entries {
		e := b.entries[idx]
		if e.Role == info.Role && e.Action == info.Action && e.DataSource == info.DataSource {
			b.entries = append(b.entries[:idx], b.entries[idx+1:]...)
			break
		}
	}
	b.entries = append(b.entries, info)
	return nil
}

// All returns a snapshot of every unit in store order.
func (b *Buffer) All() []Info {
	b.mu.RLock()
	defer b.mu.RUnlock()
	out := make([]Info, len(b.entries))
	copy(out, b.entries)
	return out
}

// ByRoles returns units produced by any of the given roles, preserving
// store order. This is the selective-retrieval primitive the FSM uses.
func (b *Buffer) ByRoles(roles ...string) []Info {
	want := make(map[string]bool, len(roles))
	for _, r := range roles {
		want[r] = true
	}
	b.mu.RLock()
	defer b.mu.RUnlock()
	var out []Info
	for _, e := range b.entries {
		if want[e.Role] {
			out = append(out, e)
		}
	}
	return out
}
