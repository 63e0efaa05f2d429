package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
)

// wallClock matches a field name that would carry a timing: the ledger is
// byte-compared, so none may appear in it.
var wallClock = regexp.MustCompile(`"[a-z0-9_]*(_ms|_us|_ns|_s|seconds[a-z_]*|duration[a-z_]*)":`)

func TestLedgerFlagEqualsCommittedFile(t *testing.T) {
	var out, errs bytes.Buffer
	if code := run([]string{"-only", "ledger"}, &out, &errs); code != 0 {
		t.Fatalf("exit %d: %s", code, errs.String())
	}
	var doc map[string]any
	if err := json.Unmarshal(out.Bytes(), &doc); err != nil {
		t.Fatalf("ledger does not parse: %v", err)
	}
	if m := wallClock.Find(out.Bytes()); m != nil {
		t.Errorf("ledger carries a wall-clock field %s", m)
	}
	want, err := os.ReadFile("../../internal/experiments/testdata/reproduction.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Error("-only ledger differs from the committed reproduction.json; TestReproductionLedger names the field")
	}
}

func TestUnknownExperimentExits2(t *testing.T) {
	var out, errs bytes.Buffer
	if code := run([]string{"-only", "nope"}, &out, &errs); code != 2 || out.Len() != 0 || !strings.Contains(errs.String(), "table1") {
		t.Errorf("exit %d, stdout %q, stderr %q: want 2, nothing printed and the valid names listed", code, out.String(), errs.String())
	}
}
