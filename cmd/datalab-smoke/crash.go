package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"time"
)

// Crash-recovery scenario, run as two phases around a `docker kill -s KILL`
// of the server container:
//
//	datalab-smoke -crash prepare -crash-rows 100000 -state /tmp/crash.json
//	# ... docker compose kill -s SIGKILL datalab-server; docker compose up --wait ...
//	datalab-smoke -crash verify -state /tmp/crash.json
//
// prepare streams -crash-rows rows into the events table, runs a battery of
// probe queries over the whole table, and writes their results plus the
// durable snapshot_version to the state file. verify, against the restarted
// server, asserts the stats line proves a recovery actually happened
// (recovered_rows_total > 0, snapshot_version identical) and that every
// probe query returns byte-identical results — i.e. the kill lost nothing
// and applied no partial chunk.

// crashProbes are the queries whose results must survive a SIGKILL
// byte-for-byte. They cover aggregate totals, per-group aggregates, and a
// deterministic sample of raw rows ordered by key.
var crashProbes = []string{
	"SELECT COUNT(*) FROM events",
	"SELECT COUNT(*), SUM(value) FROM events WHERE kind = 'crash'",
	"SELECT kind, COUNT(*), SUM(value) FROM events GROUP BY kind ORDER BY kind",
	"SELECT id, kind, value FROM events WHERE id % 9973 = 0 ORDER BY id",
}

// crashState is what prepare persists for verify to check against.
type crashState struct {
	Rows            int               `json:"rows_total"`
	SnapshotVersion float64           `json:"snapshot_version"`
	Probes          []json.RawMessage `json:"probes"`
}

// probeRows runs one query and returns its full result set as canonical
// JSON (the concatenated `rows` payloads of every progress line).
func probeRows(where, sql string) (json.RawMessage, bool) {
	resp, err := postJSON("/v1/query", map[string]any{"sql": sql})
	if err != nil {
		failf("%s: probe %q: %v", where, sql, err)
		return nil, false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		failf("%s: probe %q: status %d", where, sql, resp.StatusCode)
		return nil, false
	}
	lines := decodeStream(where, resp.Body, true)
	if len(lines) == 0 || lines[len(lines)-1]["code"] != "ok" {
		failf("%s: probe %q did not terminate with ok", where, sql)
		return nil, false
	}
	var all []any
	for _, l := range lines {
		if l["code"] != "progress" {
			continue
		}
		if rowsArr, ok := l["rows"].([]any); ok {
			all = append(all, rowsArr...)
		}
	}
	data, err := json.Marshal(all)
	if err != nil {
		failf("%s: probe %q: marshal: %v", where, sql, err)
		return nil, false
	}
	return data, true
}

// crashIngest streams n rows of kind "crash" into events, publishing as one
// NDJSON request, and verifies the terminal ok line counted all of them.
func crashIngest(n int) bool {
	const batch = 10_000
	sent := 0
	for sent < n {
		m := batch
		if n-sent < m {
			m = n - sent
		}
		var body bytes.Buffer
		for i := 0; i < m; i++ {
			id := 10_000_000 + sent + i
			fmt.Fprintf(&body, "[%d, \"crash\", %d.25]\n", id, (sent+i)%1000)
		}
		resp, err := do(http.MethodPost, "/v1/ingest/events", &body, "application/x-ndjson")
		if err != nil {
			failf("crash_prepare: ingest: %v", err)
			return false
		}
		lines := decodeStream("crash_prepare", resp.Body, true)
		resp.Body.Close()
		if len(lines) == 0 {
			return false
		}
		last := lines[len(lines)-1]
		if last["code"] != "ok" || int(num(last["rows_appended_total"])) != m {
			failf("crash_prepare: ingest batch terminal line = %v", last)
			return false
		}
		sent += m
	}
	return true
}

// crashPrepare ingests the crash workload and records the ground truth.
func crashPrepare(rows int, statePath string) {
	start := time.Now()
	if !statBool("durability_enabled") {
		failf("crash_prepare: server reports durability_enabled != true — nothing to crash-test")
		return
	}
	if !crashIngest(rows) {
		return
	}
	checkLogTakesRecords("crash_prepare")
	st := crashState{Rows: rows, SnapshotVersion: statValue("snapshot_version")}
	if st.SnapshotVersion <= 0 {
		failf("crash_prepare: snapshot_version = %v after ingest, want > 0", st.SnapshotVersion)
		return
	}
	for _, sql := range crashProbes {
		data, ok := probeRows("crash_prepare", sql)
		if !ok {
			return
		}
		st.Probes = append(st.Probes, data)
	}
	// Compact marshal: indentation would reformat the embedded RawMessage
	// probe results and break verify's byte-for-byte comparison.
	data, err := json.Marshal(st)
	if err != nil {
		failf("crash_prepare: marshal state: %v", err)
		return
	}
	if err := os.WriteFile(statePath, data, 0o644); err != nil {
		failf("crash_prepare: write state: %v", err)
		return
	}
	okf("crash_prepare", fmt.Sprintf(`,"rows_total":%d,"snapshot_version":%d,"duration_ms":%d`,
		rows, int(st.SnapshotVersion), time.Since(start).Milliseconds()))
}

// checkLogTakesRecords fails unless /v1/stats carries wal_error as "":
// no failed write, flush or fsync has stopped the server's log.
func checkLogTakesRecords(where string) {
	if e, ok := statsLine()["wal_error"].(string); !ok || e != "" {
		failf("%s: wal_error = %q (present %v), want \"\" — the log stopped taking records", where, e, ok)
	}
}

// crashVerify runs against the restarted server and proves recovery was
// complete: the stats line shows a real replay, the snapshot version is
// exactly the last durable publish, and every probe matches byte for byte.
func crashVerify(statePath string) {
	start := time.Now()
	data, err := os.ReadFile(statePath)
	if err != nil {
		failf("crash_verify: read state: %v", err)
		return
	}
	var st crashState
	if err := json.Unmarshal(data, &st); err != nil {
		failf("crash_verify: parse state: %v", err)
		return
	}
	checkLogTakesRecords("crash_verify")
	recovered := statValue("recovered_rows_total")
	if recovered <= 0 {
		failf("crash_verify: recovered_rows_total = %v, want > 0 — the restart did not replay a WAL", recovered)
	}
	if got := statValue("snapshot_version"); got != st.SnapshotVersion {
		failf("crash_verify: snapshot_version = %v, want %v — recovery stopped at the wrong version", got, st.SnapshotVersion)
	}
	for i, sql := range crashProbes {
		got, ok := probeRows("crash_verify", sql)
		if !ok {
			return
		}
		if i >= len(st.Probes) {
			failf("crash_verify: state file has no recorded result for probe %q", sql)
			continue
		}
		if !bytes.Equal(got, st.Probes[i]) {
			failf("crash_verify: probe %q diverged after recovery:\n pre-crash: %s\npost-crash: %s", sql, st.Probes[i], got)
		}
	}
	okf("crash_verify", fmt.Sprintf(`,"recovered_rows_total":%d,"snapshot_version":%d,"probes_total":%d,"duration_ms":%d`,
		int(recovered), int(st.SnapshotVersion), len(crashProbes), time.Since(start).Milliseconds()))
}
