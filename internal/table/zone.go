package table

import "math"

// Zone maps, Moerkotte's small materialized aggregates: an int column an
// Appender published keeps, for each full block of zoneRows rows
// counted from row 0, the min and max of the block's non-NULL cells and
// whether the block holds a NULL. SelectCompare's interval scan reads them
// to skip a block wholly outside its interval and to take one wholly inside
// without reading its cells. The partial tail block has no entry.
//
// Only the Appender computes zones, when it publishes (Appender.zone), over
// the blocks that publish filled. Entries are appended and never
// rewritten, and each publish that adds one hangs a fresh map capped at its
// length on the column, so a snapshot and every prefix view of it share one
// pointer, and a view reads only the blocks its own length covers
// (zoneBlocks). A gather, copy, Set, or view not starting at row 0 carries
// no zones.
//
// zoneRows was picked by a BenchmarkKernel sweep of 256 to 4,096 rows
// (docs/PERFORMANCE.md, "Zone maps").
const zoneRows = 1024

// zone is one full block's summary. A block of NULLs alone has min > max,
// so it lies outside every interval.
type zone struct {
	min, max int64
	null     bool
}

// zoneMap is a column's zones, one per full block, oldest first.
type zoneMap struct {
	blocks []zone
}

// zoneBlocks returns the zones of the full blocks within c's length: none
// for a column no Appender published, or one under a block long.
func (c *Column) zoneBlocks() []zone {
	if c.zones == nil {
		return nil
	}
	return c.zones.blocks[:min(len(c.zones.blocks), c.length/zoneRows)]
}

// zoneOf summarizes one block's cells.
func zoneOf(vals []int64, nulls []bool) zone {
	z := zone{min: math.MaxInt64, max: math.MinInt64}
	nulls = nulls[:len(vals)]
	for i, x := range vals {
		if nulls[i] {
			z.null = true
			continue
		}
		z.min = min(z.min, x)
		z.max = max(z.max, x)
	}
	return z
}

// zone extends the zones of every int column of the arena over
// the full blocks of rows [0, n), and hangs a fresh map of them on each
// column that gained one.
func (a *Appender) zone(n int) {
	full := n / zoneRows
	if full == 0 {
		return
	}
	if a.zoned == nil {
		a.zoned = make([][]zone, len(a.arena))
	}
	for i := range a.arena {
		col, blocks := &a.arena[i], a.zoned[i]
		if col.Kind != KindInt || len(blocks) == full {
			continue
		}
		for b := len(blocks); b < full; b++ {
			lo, hi := b*zoneRows, (b+1)*zoneRows
			blocks = append(blocks, zoneOf(col.ints[lo:hi], col.nulls[lo:hi]))
		}
		a.zoned[i] = blocks
		col.zones = &zoneMap{blocks: blocks[:full:full]}
	}
}
