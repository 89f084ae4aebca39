package main

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

// TestHelpGolden pins the binary's flag surface — names, defaults and help
// text — so a PR that adds, renames or re-defaults a flag has to say so by
// editing testdata/help.golden (the usage text this test prints on a
// mismatch).
func TestHelpGolden(t *testing.T) {
	fs := flag.NewFlagSet("ivqp-dss", flag.ContinueOnError)
	var got bytes.Buffer
	fs.SetOutput(&got)
	if err := cli(fs, []string{"-h"}); !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("cli -h returned %v, want flag.ErrHelp", err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "help.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("flag surface changed; if intended, make testdata/help.golden read:\n%s", got.String())
	}
}
