package main

import (
	"testing"

	"ivdss/internal/clitest"
)

// TestHelpGolden pins the binary's flag surface in testdata/help.golden.
func TestHelpGolden(t *testing.T) { clitest.HelpGolden(t, "ivqp-workload", cli) }
