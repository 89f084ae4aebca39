package main

import (
	"flag"
	"io"
	"os"
	"strings"
	"testing"

	"ivdss/internal/relation"
	"ivdss/internal/server"
)

// ivqp -remote sends a remote site only the fields it reads, and prints
// the site's answer.
func TestRemoteAnswersAQuery(t *testing.T) {
	addr := startAccounts(t)
	out, err := runCLI("-addr", addr, "-remote", "SELECT a_id FROM accounts")
	if err != nil {
		t.Fatal(err)
	}
	if want := "A_ID\n7   \n(1 rows)\n"; out != want {
		t.Errorf("ivqp -remote printed %q, want %q", out, want)
	}
}

// -remote reaches -batch: the members go without a business value, which
// a remote site refuses, and each prints its table without an IV line (a
// remote's answers carry no report accounting to print).
func TestRemoteAnswersABatch(t *testing.T) {
	addr := startAccounts(t)
	out, err := runCLI("-addr", addr, "-remote", "-batch", "SELECT a_id FROM accounts; SELECT count(*) AS n FROM accounts")
	if err != nil {
		t.Fatal(err)
	}
	if want := "--- query 1 ---\nA_ID\n7   \n(1 rows)\n--- query 2 ---\nN\n1\n(1 rows)\n\nworkload: 2 queries (wall "; !strings.HasPrefix(out, want) {
		t.Errorf("ivqp -remote -batch printed %q, want it to start %q", out, want)
	}
}

// startAccounts serves a one-row accounts table from a remote site.
func startAccounts(t *testing.T) string {
	t.Helper()
	tbl := relation.NewTable("accounts", relation.MustSchema(relation.Column{Name: "a_id", Type: relation.Int}))
	tbl.MustInsert(relation.Row{relation.IntVal(7)})
	remote := server.NewRemoteServer()
	if err := remote.AddTable(tbl); err != nil {
		t.Fatal(err)
	}
	addr, err := remote.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { remote.Close() })
	return addr
}

// runCLI runs ivqp with args and returns what it printed.
func runCLI(args ...string) (string, error) {
	r, w, err := os.Pipe()
	if err != nil {
		return "", err
	}
	stdout := os.Stdout
	os.Stdout = w
	err = cli(flag.NewFlagSet("ivqp", flag.ContinueOnError), args)
	os.Stdout = stdout
	w.Close()
	out, _ := io.ReadAll(r)
	return string(out), err
}
