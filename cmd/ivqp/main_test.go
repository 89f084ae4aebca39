package main

import (
	"flag"
	"io"
	"os"
	"testing"

	"ivdss/internal/relation"
	"ivdss/internal/server"
)

// ivqp -remote sends a remote site only the fields it reads, and prints
// the site's answer.
func TestRemoteAnswersAQuery(t *testing.T) {
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
	defer remote.Close()

	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	err = cli(flag.NewFlagSet("ivqp", flag.ContinueOnError), []string{"-addr", addr, "-remote", "SELECT a_id FROM accounts"})
	os.Stdout = stdout
	w.Close()
	out, _ := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if want := "A_ID\n7   \n(1 rows)\n"; string(out) != want {
		t.Errorf("ivqp -remote printed %q, want %q", out, want)
	}
}
