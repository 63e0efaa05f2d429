package server

import (
	"strconv"

	"datalab"
)

// DemoColumns is the schema of the built-in demo dataset: an `events`
// table shaped like the engine benchmarks, big enough that a full scan
// streams many batches.
var DemoColumns = []string{"id", "kind", "value"}

// demoKinds cycles through the demo event kinds.
var demoKinds = []string{"view", "click", "buy"}

// DemoRecords generates n demo event rows as string records (the
// LoadRecords/AppendRecords shape). Values are deterministic: id counts
// up from base, kind cycles, value is a pseudo-scattered two-decimal
// float.
func DemoRecords(base, n int) [][]string {
	rows := make([][]string, n)
	for i := 0; i < n; i++ {
		id := base + i
		rows[i] = []string{
			strconv.Itoa(id),
			demoKinds[id%len(demoKinds)],
			strconv.FormatFloat(float64((id*7919)%10000)/100, 'f', 2, 64),
		}
	}
	return rows
}

// LoadDemo registers the demo `events` table with n rows on the platform.
func LoadDemo(p *datalab.Platform, n int) error {
	return p.LoadRecords("events", DemoColumns, DemoRecords(0, n))
}
