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
// binary, run again with LOGICALOPS_ARGS set) for each bad invocation,
// and requires exit status 2 with a "logicalops: " line on stderr and
// nothing on stdout. Unchecked, a stray argument is ignored and the
// whole verification runs.
func TestBadFlagsExitTwoUpfront(t *testing.T) {
	if args, ok := os.LookupEnv("LOGICALOPS_ARGS"); ok {
		os.Args = append([]string{"logicalops"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	for _, args := range []string{
		"stray",
		"-seed 3 stray",
	} {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		cmd := exec.CommandContext(ctx, os.Args[0], "-test.run=^TestBadFlagsExitTwoUpfront$")
		cmd.Dir = t.TempDir()
		cmd.Env = append(os.Environ(), "LOGICALOPS_ARGS="+args)
		var out, errb bytes.Buffer
		cmd.Stdin = strings.NewReader("")
		cmd.Stdout, cmd.Stderr = &out, &errb
		err := cmd.Run()
		cancel()
		var ee *exec.ExitError
		if !errors.As(err, &ee) || ee.ExitCode() != 2 {
			t.Errorf("logicalops %s: %v, want exit status 2", args, err)
		}
		if !strings.HasPrefix(errb.String(), "logicalops: ") {
			t.Errorf("logicalops %s: stderr %q, want a usage line", args, errb.String())
		}
		if out.Len() > 0 {
			t.Errorf("logicalops %s printed %q to stdout", args, out.String())
		}
	}
}
