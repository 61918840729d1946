package main

import (
	"bytes"
	"context"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"
)

// TestBadFlagsExitTwoUpfront runs main in a child process (this test
// binary, run again with QPDO_ARGS set) for each bad invocation,
// and requires exit status 2 with a "qpdo: " line on stderr and
// nothing on stdout. Unchecked, bad -shots, -per and arguments run the
// bench and fail its verdict, -tb drops -per silently, and an unknown
// -core surfaces only inside the shot loop.
func TestBadFlagsExitTwoUpfront(t *testing.T) {
	if args, ok := os.LookupEnv("QPDO_ARGS"); ok {
		os.Args = append([]string{"qpdo"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	for _, args := range []string{
		"-tb bell -shots -1",
		"-shots 0",
		"-tb bell -per 1.5",
		"-per NaN",
		"-per -0.1",
		"-tb bell stray",
		"-tb bell -per 0.01",
		"-core bogus",
		"-tb bogus",
		"a.qasm b.qasm",
	} {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		cmd := exec.CommandContext(ctx, os.Args[0], "-test.run=^TestBadFlagsExitTwoUpfront$")
		cmd.Dir = t.TempDir()
		cmd.Env = append(os.Environ(), "QPDO_ARGS="+args)
		var out, errb bytes.Buffer
		cmd.Stdin = strings.NewReader("")
		cmd.Stdout, cmd.Stderr = &out, &errb
		err := cmd.Run()
		cancel()
		var ee *exec.ExitError
		if !errors.As(err, &ee) || ee.ExitCode() != 2 {
			t.Errorf("qpdo %s: %v, want exit status 2", args, err)
		}
		if !strings.HasPrefix(errb.String(), "qpdo: ") {
			t.Errorf("qpdo %s: stderr %q, want a usage line", args, errb.String())
		}
		if out.Len() > 0 {
			t.Errorf("qpdo %s printed %q to stdout", args, out.String())
		}
	}
}
