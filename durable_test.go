package datalab

import (
	"context"
	"fmt"
	"reflect"
	"testing"
)

func durable(t *testing.T, dir string) *Platform {
	t.Helper()
	p, err := OpenDurable(dir, DurabilityOptions{})
	if err != nil {
		t.Fatalf("OpenDurable: %v", err)
	}
	return p
}

func queryStrings(t *testing.T, p *Platform, sql string) [][]string {
	t.Helper()
	res, err := p.QueryCtx(context.Background(), sql)
	if err != nil {
		t.Fatalf("query %q: %v", sql, err)
	}
	return res.Strings()
}

// TestOpenDurableRoundTrip is the platform-level durability loop:
// register, ingest, close, reopen, and prove recovered queries return
// byte-identical results.
func TestOpenDurableRoundTrip(t *testing.T) {
	dir := t.TempDir()
	p := durable(t, dir)
	if err := p.LoadRecords("metrics", []string{"host", "cpu"}, [][]string{
		{"a", "10"}, {"b", "20"},
	}); err != nil {
		t.Fatal(err)
	}
	in, err := p.Ingest("metrics")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		if err := in.Append(fmt.Sprintf("h%d", i%7), fmt.Sprintf("%d", i)); err != nil {
			t.Fatal(err)
		}
		if i%97 == 0 {
			if _, err := in.PublishErr(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := in.PublishErr(); err != nil {
		t.Fatal(err)
	}

	const probe = "SELECT host, COUNT(*), SUM(cpu) FROM metrics GROUP BY host ORDER BY host"
	want := queryStrings(t, p, probe)
	wantStats := p.DurabilityStats()
	if !wantStats.Enabled || wantStats.WALBytes == 0 || wantStats.SnapshotVersion < 2 || wantStats.LogError != "" {
		t.Fatalf("durability stats look wrong: %+v", wantStats)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	p2 := durable(t, dir)
	defer p2.Close()
	got := queryStrings(t, p2, probe)
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("recovered query diverged:\nwant %v\ngot  %v", want, got)
	}
	st := p2.DurabilityStats()
	if st.RecoveredRows != 502 {
		t.Fatalf("RecoveredRows = %d, want 502", st.RecoveredRows)
	}
	if st.SnapshotVersion != wantStats.SnapshotVersion {
		t.Fatalf("recovered snapshot version %d, want %d", st.SnapshotVersion, wantStats.SnapshotVersion)
	}

	// The recovered platform keeps ingesting durably.
	in2, err := p2.Ingest("metrics")
	if err != nil {
		t.Fatal(err)
	}
	if err := in2.Append("zz", "999"); err != nil {
		t.Fatal(err)
	}
	if n, err := in2.PublishErr(); err != nil || n != 503 {
		t.Fatalf("publish after recovery: n=%d err=%v", n, err)
	}
}

// TestDurableTimeIsItsInstantAfterReopen: a time cell sent with a zone is
// stored as its UTC instant, which is what WAL recovery decodes, so a
// durable table answers a time predicate the same before and after a
// restart.
func TestDurableTimeIsItsInstantAfterReopen(t *testing.T) {
	dir := t.TempDir()
	p := durable(t, dir)
	if err := p.LoadRecords("stamps", []string{"id", "ts"}, [][]string{{"1", "2024-01-01 00:00:00"}}); err != nil {
		t.Fatal(err)
	}
	if err := p.AppendRecords("stamps", [][]string{{"2", "2024-01-01T10:00:00+02:00"}}); err != nil {
		t.Fatal(err)
	}
	const probe = "SELECT id, ts, ts > '2024-01-01 09:00:00' FROM stamps ORDER BY id"
	before := queryStrings(t, p, probe)
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	p2 := durable(t, dir)
	defer p2.Close()
	after := queryStrings(t, p2, probe)
	if !reflect.DeepEqual(before, after) || before[1][1] != "2024-01-01 08:00:00" {
		t.Fatalf("before the restart %q, after %q; want the row at 08:00:00 UTC both times", before, after)
	}
}

// TestOpenDurableCheckpoint proves the platform-level checkpoint path
// and that a checkpointed catalog recovers identically.
func TestOpenDurableCheckpoint(t *testing.T) {
	dir := t.TempDir()
	p := durable(t, dir)
	if err := p.LoadRecords("kv", []string{"k", "v"}, nil); err != nil {
		t.Fatal(err)
	}
	if err := p.AppendRecords("kv", [][]string{{"x", "1"}, {"y", "2"}}); err != nil {
		t.Fatal(err)
	}
	if err := p.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := p.AppendRecords("kv", [][]string{{"z", "3"}}); err != nil {
		t.Fatal(err)
	}
	if st := p.DurabilityStats(); st.Checkpoints != 1 || st.LastCheckpointUnixMilli == 0 {
		t.Fatalf("stats after checkpoint: %+v", st)
	}
	p.Close()

	p2 := durable(t, dir)
	defer p2.Close()
	got := queryStrings(t, p2, "SELECT k, v FROM kv ORDER BY k")
	want := [][]string{{"x", "1"}, {"y", "2"}, {"z", "3"}}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("want %v, got %v", want, got)
	}
}

// TestPublishSurfacesWALError pins the Ingestor's only publish call on a
// durable platform whose log can no longer be written: the error reaches
// the caller, and the rows stay staged and invisible rather than being
// dropped or half-applied.
func TestPublishSurfacesWALError(t *testing.T) {
	p := durable(t, t.TempDir())
	if err := p.LoadRecords("kv", []string{"k", "v"}, [][]string{{"x", "1"}}); err != nil {
		t.Fatal(err)
	}
	in, err := p.Ingest("kv")
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if err := in.Append("y", "2"); err != nil {
		t.Fatal(err)
	}
	if n, err := in.PublishErr(); err == nil {
		t.Fatalf("PublishErr on a closed log returned %d rows and no error", n)
	}
	if in.Pending() != 1 {
		t.Fatalf("Pending = %d after a failed publish, want the row still staged", in.Pending())
	}
	if got := queryStrings(t, p, "SELECT COUNT(*) FROM kv"); got[0][0] != "1" {
		t.Fatalf("unjournaled row became visible: count = %v", got[0][0])
	}
}

// TestCodesComeBackAfterReopen: dictionary codes are not logged. A
// durable table past the coding floor is coded before a restart, and
// recovery's publishes code it again — the same dictionary, since the rows
// replay in order — with every answer unchanged, through a checkpoint and
// the log after it.
func TestCodesComeBackAfterReopen(t *testing.T) {
	dir := t.TempDir()
	p := durable(t, dir)
	kinds := []string{"view", "click", "buy", ""} // "" is a NULL kind
	rows := func(lo, n int) [][]string {
		out := make([][]string, n)
		for i := range out {
			out[i] = []string{fmt.Sprint(lo + i), kinds[(lo+i)*7%len(kinds)], fmt.Sprint((lo + i) % 13)}
		}
		return out
	}
	if err := p.LoadRecords("events", []string{"id", "kind", "v"}, rows(0, 5000)); err != nil {
		t.Fatal(err)
	}
	if err := p.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := p.AppendRecords("events", rows(5000, 700)); err != nil {
		t.Fatal(err)
	}
	codes := func(p *Platform) ([]int32, []string) {
		t.Helper()
		s, ok := p.catalog.Snapshot("events")
		if !ok {
			t.Fatal("no events table")
		}
		codes, dict, _, ok := s.Table().Columns[1].Codes()
		if !ok || len(codes) != 5700 {
			t.Fatalf("kind column over %d rows: %d codes, coded %v", s.NumRows(), len(codes), ok)
		}
		return codes, dict
	}
	const probe = "SELECT kind, COUNT(*), SUM(v) FROM events WHERE id >= 1200 GROUP BY kind HAVING MAX(v + 1) > 2 ORDER BY kind"
	wantCodes, wantDict := codes(p)
	want := queryStrings(t, p, probe)
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	p2 := durable(t, dir)
	defer p2.Close()
	gotCodes, gotDict := codes(p2)
	if !reflect.DeepEqual(gotCodes, wantCodes) || !reflect.DeepEqual(gotDict, wantDict) {
		t.Errorf("recovered dictionary %q, want %q (codes equal: %v)", gotDict, wantDict, reflect.DeepEqual(gotCodes, wantCodes))
	}
	if got := queryStrings(t, p2, probe); !reflect.DeepEqual(got, want) {
		t.Errorf("recovered answer %v, want %v", got, want)
	}
}

// TestMemoryOnlyPlatformUnchanged pins the memory-only surface: stats
// zeroed, Close/Checkpoint no-ops.
func TestMemoryOnlyPlatformUnchanged(t *testing.T) {
	p := MustNew()
	if st := p.DurabilityStats(); st.Enabled || st.WALBytes != 0 {
		t.Fatalf("memory-only stats: %+v", st)
	}
	if err := p.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
}
