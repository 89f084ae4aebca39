// Package clitest holds the test helper the serving binaries share.
package clitest

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

// HelpGolden pins a binary's flag surface — names, defaults and help text —
// so a change that adds, renames or re-defaults a flag has to say so by
// editing testdata/help.golden (the usage text this prints on a mismatch).
// cli is the binary's flag-parsing entry point, run with -h on a flag set
// named name.
func HelpGolden(t *testing.T, name string, cli func(*flag.FlagSet, []string) error) {
	t.Helper()
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
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
