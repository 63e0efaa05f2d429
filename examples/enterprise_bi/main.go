// Enterprise BI: the paper's motivating scenario. A warehouse table has
// cryptic column names (prod_class4_name, shouldincome_after, ftime); the
// Domain Knowledge Incorporation module learns their semantics from the
// data-processing scripts analysts already run, so queries phrased in
// business language ("income of TencentBI this year") resolve correctly.
package main

import (
	"fmt"
	"log"
	"strings"

	"datalab"
)

func main() {
	p := datalab.MustNew(datalab.WithSeed("enterprise"))

	// Raw warehouse data with cryptic names and no documentation.
	err := p.LoadRecords("23_customer_bg",
		[]string{"uin", "prod_class4_name", "shouldincome_after", "ftime"},
		[][]string{
			{"100001", "TencentBI", "1200.50", "2024-01-15"},
			{"100002", "TencentCloud", "8800.00", "2024-02-20"},
			{"100003", "TencentBI", "1550.75", "2024-03-05"},
			{"100004", "TencentAds", "4300.00", "2024-04-11"},
			{"100005", "TencentBI", "1900.00", "2024-05-23"},
			{"100006", "TencentCloud", "9100.25", "2024-06-30"},
			{"100007", "TencentAds", "3800.00", "2023-07-14"},
			{"100008", "TencentBI", "990.00", "2023-08-02"},
		})
	if err != nil {
		log.Fatal(err)
	}

	// Ask before learning: the cryptic schema defeats the query.
	before, err := p.Ask("total income by product line", "23_customer_bg")
	if err != nil {
		fmt.Println("without knowledge, the query fails:", err)
	} else {
		fmt.Println("without knowledge, SQL:", orNone(before.SQL))
	}

	// Knowledge generation from script history (Algorithm 1): the daily
	// report script names the columns' business meanings via aliases.
	err = p.LearnKnowledge("sales_db", "23_customer_bg",
		[]datalab.ColumnSchema{
			{Name: "uin", Type: "bigint"},
			{Name: "prod_class4_name", Type: "string"},
			{Name: "shouldincome_after", Type: "double"},
			{Name: "ftime", Type: "date"},
		},
		[]datalab.Script{
			{
				ID:       "daily_income.sql",
				Language: "sql",
				Text: `-- daily income report for product lines
SELECT prod_class4_name AS product_line_name,
       SUM(shouldincome_after) AS income_after_tax
FROM 23_customer_bg
WHERE ftime BETWEEN '2024-01-01' AND '2024-12-31'
GROUP BY prod_class4_name`,
			},
			{
				ID:       "preprocess.py",
				Language: "python",
				Text: `# customer background preprocessing
df = df.rename(columns={"ftime": "partition date", "uin": "user identifier"})
out = df.groupby("prod_class4_name").agg({"shouldincome_after": "sum"})`,
			},
		})
	if err != nil {
		log.Fatal(err)
	}
	p.AddGlossary(datalab.Glossary{
		Term:         "income",
		Definition:   "income after tax, the shouldincome_after measure",
		MapsToColumn: "shouldincome_after",
		MapsToTable:  "23_customer_bg",
	})

	after, err := p.Ask("total income by product line in 2024", "23_customer_bg")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nwith knowledge, SQL:", after.SQL)
	fmt.Println("\nresult:")
	fmt.Println(" ", strings.Join(after.Result.Columns(), " | "))
	for _, row := range after.Result.Strings() {
		fmt.Println(" ", strings.Join(row, " | "))
	}
}

func orNone(s string) string {
	if s == "" {
		return "(no SQL produced)"
	}
	return s
}
