package sqlengine

// Ungated benchmarks of the kernels that no workload of the repository's
// benchmark (BENCHMARK.json, bench/) enters — checked against statement
// coverage of a traced bench/ run; docs/PERFORMANCE.md lists each with the
// code it isolates. Everything a workload does reach is measured there and
// only there. Run while working on one of these kernels:
//
//	go test -run '^$' -bench . -benchmem ./internal/sqlengine

import (
	"context"
	"testing"
)

// kernelQueries run over joinTestCatalog at 100k probe rows.
var kernelQueries = []struct{ name, sql string }{
	// One WHERE at five pass rates with the passing rows clustered: span-form
	// selections, so allocs/op must stay flat. No workload sweeps selectivity.
	{"Selectivity0", "SELECT id, v FROM probe WHERE id < 0"},
	{"Selectivity1", "SELECT id, v FROM probe WHERE id < 1000"},
	{"Selectivity50", "SELECT id, v FROM probe WHERE id < 50000"},
	{"Selectivity99", "SELECT id, v FROM probe WHERE id < 99000"},
	{"Selectivity100", "SELECT id, v FROM probe WHERE id >= 0"},
	// A range whose ends fall mid-block: two boundary blocks are read cell
	// by cell, the zones decide the rest.
	{"RangeMidBlock", "SELECT id, v FROM probe WHERE id >= 1500 AND id < 70300"},
	// The same rates spread periodically: dense indices and the selection merge.
	{"Selectivity1Scattered", "SELECT id, v FROM probe WHERE id % 100 = 0"},
	{"Selectivity50Scattered", "SELECT id, v FROM probe WHERE id % 2 = 0"},
	// Uncorrelated subqueries: executed once and inlined, or a membership set.
	{"ScalarSubquery100k", "SELECT id FROM probe WHERE v > (SELECT AVG(v) FROM probe)"},
	{"InSubquery100k", "SELECT id FROM probe WHERE k IN (SELECT sk FROM sparse WHERE sk < 3)"},
	// Null-mask padding on both sides and the unmatched-build sweep.
	{"JoinFullOuter100k", "SELECT probe.id, sparse.label FROM probe FULL OUTER JOIN sparse ON probe.k = sparse.sk"},
	// No equality in ON: a nested loop whose candidates are every sparse row,
	// the ON batch-evaluated over several probe rows' pairs at a time.
	{"JoinTheta100k", "SELECT probe.id, sparse.label FROM probe LEFT JOIN sparse ON probe.k > sparse.sk"},
	// A cross-side ON conjunct, batch-evaluated over the candidate pairs of a 1:3 fan-out.
	{"JoinResidual100k", "SELECT probe.id, fanout.tag FROM probe JOIN fanout ON probe.k = fanout.fk AND fanout.w > probe.v"},
	// A full sort with no LIMIT: per-chunk sorts on the worker pool, k-way merge.
	{"OrderBy100k", "SELECT id, v FROM probe ORDER BY v"},
	// An explicit ROWS frame builds a fresh accumulator per row, O(n·w).
	{"MovingSum100k", "SELECT id, SUM(v) OVER (PARTITION BY k ORDER BY id ROWS BETWEEN 100 PRECEDING AND CURRENT ROW) FROM probe"},
}

// BenchmarkKernel times each statement the way a request runs it: QueryCtx,
// then a drain of every batch of the Result.
func BenchmarkKernel(b *testing.B) {
	c := joinTestCatalog(100_000)
	for _, k := range kernelQueries {
		b.Run(k.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := c.QueryCtx(context.Background(), k.sql)
				if err != nil {
					b.Fatal(err)
				}
				for bt := res.Next(); bt != nil; bt = res.Next() {
				}
			}
		})
	}
}

// BenchmarkFingerprintOnly isolates the normalizer's allocs/op: lex +
// splice, no cache, no execution.
func BenchmarkFingerprintOnly(b *testing.B) {
	const q = "SELECT k, SUM(v) FROM probe WHERE v < 7 AND k <> 3 AND id IN (1, 2, 3) GROUP BY k HAVING COUNT(*) > 2 LIMIT 5"
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, ok := Fingerprint(q); !ok {
			b.Fatal("fingerprint failed")
		}
	}
}
