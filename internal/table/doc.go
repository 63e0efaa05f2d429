// Package table implements the columnar in-memory dataframe engine that
// underpins DataLab: SQL cells execute against it, Python-cell data
// operations run on it, and the profiling/insight modules read statistics
// from it. It plays the role pandas plus the warehouse storage layer play
// in the paper's deployment.
//
// # Storage model
//
// A [Table] is a named list of equal-length [Column] values. Each column
// stores its cells in one typed Go slice selected by the column's [Kind]
// plus a parallel null bitmap; row-oriented callers go through the
// [Value] view (Value, Append, Set), hot paths read the typed slices
// directly (Ints, Floats, Strings, Bools, Times). A column holds one kind:
// every non-NULL cell has the column's Kind, and a value of another kind
// is converted first ([Kind.Coerce], [Kind.Parse]) or refused.
//
// # Row sets and bulk movement
//
// [Selection] is the engine's description of which rows of a relation
// survive a filter: either a list of [Span] ranges (long runs cost two
// ints regardless of length) or a dense ascending index vector, chosen by
// density at construction. The bulk gather primitives move cells by the
// container that describes them: [Column.View] is a zero-copy window,
// [Column.GatherSel] copies a Selection span-at-a-time, and
// [Column.Gather] materializes an arbitrary index list, with a pad mask
// marking the output positions that are NULL padding (outer joins, the
// empty global group).
//
// [JoinPairs] holds a join's match list for every [JoinKind] (a RIGHT
// join builds as the LEFT join of the swapped sides): allocated once,
// sized to the probe side, filled through one [JoinPairs.Window] per probe
// chunk and put back together by [JoinPairs.Merge]; the SQL engine's
// join pipeline (package sqlengine) probes through [NewHashProbe], whose
// keys are exact for every pair [EquiHashable] accepts and whose index
// is one flat list of the build rows grouped by key.
//
// See docs/ENGINE.md at the repository root for how these pieces compose
// into the full query lifecycle.
package table
