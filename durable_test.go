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
	if !wantStats.Enabled || wantStats.WALBytes == 0 || wantStats.SnapshotVersion < 2 {
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
