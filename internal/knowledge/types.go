// Package knowledge implements DataLab's Domain Knowledge Incorporation
// module (§IV): LLM-based knowledge generation from script history
// (Algorithm 1), organization into a knowledge graph with task-aware
// indexes, and utilization — query rewrite, coarse-to-fine retrieval
// (Algorithm 2), DSL translation — plus the data-profiling fallback for
// in-the-wild tables.
package knowledge

import (
	"fmt"
	"strings"
)

// ColumnSchema is the raw schema of one column as stored in the warehouse:
// frequently just a cryptic name and a type, per the paper's finding that
// 85% of enterprise tables lack comprehensive metadata.
type ColumnSchema struct {
	Name    string
	Type    string // warehouse type name: bigint, double, string, date...
	Comment string // often empty in practice
}

// TableSchema is the raw schema of one table.
type TableSchema struct {
	Database string
	Name     string
	Columns  []ColumnSchema
}

// QualifiedName returns db.table.
func (s TableSchema) QualifiedName() string {
	if s.Database == "" {
		return s.Name
	}
	return s.Database + "." + s.Name
}

// Column returns the named column schema, or nil.
func (s TableSchema) Column(name string) *ColumnSchema {
	for i := range s.Columns {
		if strings.EqualFold(s.Columns[i].Name, name) {
			return &s.Columns[i]
		}
	}
	return nil
}

// ScriptLanguage tags a historical data-processing script.
type ScriptLanguage string

// Supported script languages.
const (
	LangSQL    ScriptLanguage = "sql"
	LangPython ScriptLanguage = "python"
)

// Script is one historical data-processing script associated with a table
// — the paper's key observation is that these scripts, written by
// professionals and run daily, reveal the semantics of cryptic schemas.
type Script struct {
	ID       string
	Language ScriptLanguage
	Text     string
}

// LineageEdge records that a target table/column is derived from a source
// — the auxiliary signal used when script history is thin.
type LineageEdge struct {
	FromTable  string
	FromColumn string // optional
	ToTable    string
	ToColumn   string // optional
	Transform  string // free-text description of the transformation
}

// DerivedColumn is business logic for a column that does not exist in the
// raw table but is routinely computed from it.
type DerivedColumn struct {
	Name             string   `json:"name"`
	Description      string   `json:"description"`
	Usage            string   `json:"usage"`
	CalculationLogic string   `json:"calculation_logic"`
	RelatedColumns   []string `json:"related_columns"`
	Tags             []string `json:"tags"`
}

// ColumnKnowledge is the generated knowledge for one column (§IV-A,
// column level).
type ColumnKnowledge struct {
	Name        string          `json:"name"`
	Table       string          `json:"table"`
	Description string          `json:"description"`
	Usage       string          `json:"usage"`
	Type        string          `json:"type"`
	Tags        []string        `json:"tags"`
	Derived     []DerivedColumn `json:"derived,omitempty"`
}

// TableKnowledge is the generated knowledge for one table (§IV-A, table
// level).
type TableKnowledge struct {
	Name         string   `json:"name"`
	Database     string   `json:"database"`
	Description  string   `json:"description"`
	Usage        string   `json:"usage"`
	Organization string   `json:"organization"`
	KeyColumns   []string `json:"key_columns"`
	KeyDerived   []string `json:"key_derived_attributes"`
	Tags         []string `json:"tags"`
}

// DatabaseKnowledge is the generated knowledge for one database.
type DatabaseKnowledge struct {
	Name        string   `json:"name"`
	Description string   `json:"description"`
	Usage       string   `json:"usage"`
	Tags        []string `json:"tags"`
}

// ValueKnowledge records the meaning of a specific cell value (e.g. a
// product code) so conditions can be linked from query terms.
type ValueKnowledge struct {
	Column      string   `json:"column"`
	Table       string   `json:"table"`
	Value       string   `json:"value"`
	Description string   `json:"description"`
	Aliases     []string `json:"aliases,omitempty"`
}

// JargonEntry is an enterprise-glossary term (§IV-A: jargon is curated,
// not generated). Expansion may reference a derived column or a filter.
type JargonEntry struct {
	Term       string   `json:"term"`
	Definition string   `json:"definition"`
	Aliases    []string `json:"aliases,omitempty"`
	// MapsToColumn optionally names the table column or derived column the
	// term denotes, e.g. ARPU -> derived arpu on revenue table.
	MapsToColumn string `json:"maps_to_column,omitempty"`
	MapsToTable  string `json:"maps_to_table,omitempty"`
	// MapsToValue optionally names a condition the term implies,
	// e.g. "TencentBI" -> prod_class4_name = 'TencentBI'.
	MapsToValue string `json:"maps_to_value,omitempty"`
}

// Bundle is the complete generated knowledge for one table: the output of
// Algorithm 1's reduce phase.
type Bundle struct {
	Database DatabaseKnowledge `json:"database"`
	Table    TableKnowledge    `json:"table"`
	Columns  []ColumnKnowledge `json:"columns"`
	Values   []ValueKnowledge  `json:"values,omitempty"`
}

// ColumnByName finds generated column knowledge by name.
func (b *Bundle) ColumnByName(name string) *ColumnKnowledge {
	for i := range b.Columns {
		if strings.EqualFold(b.Columns[i].Name, name) {
			return &b.Columns[i]
		}
	}
	return nil
}

// Level is the knowledge-availability setting of the Table II ablation.
type Level int

// Ablation settings (§VII-C.2).
const (
	LevelNone    Level = iota // S1: schema only
	LevelPartial              // S2: + descriptions, usage, tags
	LevelFull                 // S3: + derived-column calculation logic etc.
)

// String implements fmt.Stringer.
func (l Level) String() string {
	switch l {
	case LevelNone:
		return "S1(no knowledge)"
	case LevelPartial:
		return "S2(partial knowledge)"
	case LevelFull:
		return "S3(all knowledge)"
	default:
		return fmt.Sprintf("Level(%d)", int(l))
	}
}
