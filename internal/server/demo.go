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
	var buf [24]byte
	for i := 0; i < n; i++ {
		id := base + i
		rows[i] = []string{
			strconv.Itoa(id),
			demoKinds[id%len(demoKinds)],
			string(appendCents(buf[:0], (id*7919)%10000)),
		}
	}
	return rows
}

// appendCents appends c ≥ 0 hundredths with two decimals: the bytes
// strconv.FormatFloat(float64(c)/100, 'f', 2, 64) writes, without the
// float formatter's big-decimal rounding.
func appendCents(dst []byte, c int) []byte {
	dst = strconv.AppendInt(dst, int64(c/100), 10)
	return append(dst, '.', byte('0'+c/10%10), byte('0'+c%10))
}

// LoadDemo registers the demo `events` table with n rows on the platform.
func LoadDemo(p *datalab.Platform, n int) error {
	return p.LoadRecords("events", DemoColumns, DemoRecords(0, n))
}
