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
// binary, run again with REPRODUCE_ARGS set) for each bad invocation,
// and requires exit status 2 with a "reproduce: " line on stderr and
// nothing on stdout. A stray argument used to stop flag parsing and run
// the default scale instead.
func TestBadFlagsExitTwoUpfront(t *testing.T) {
	if args, ok := os.LookupEnv("REPRODUCE_ARGS"); ok {
		os.Args = append([]string{"reproduce"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	for _, args := range []string{
		"thesis -scale smoke -o r.md",
		"-workers -1",
		"-scale bogus",
		"-engine bogus",
		"-lanes 2",
		"-engine framesim -lanes 3",
	} {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		cmd := exec.CommandContext(ctx, os.Args[0], "-test.run=^TestBadFlagsExitTwoUpfront$")
		cmd.Dir = t.TempDir()
		cmd.Env = append(os.Environ(), "REPRODUCE_ARGS="+args)
		var out, errb bytes.Buffer
		cmd.Stdout, cmd.Stderr = &out, &errb
		err := cmd.Run()
		cancel()
		var ee *exec.ExitError
		if !errors.As(err, &ee) || ee.ExitCode() != 2 {
			t.Errorf("reproduce %s: %v, want exit status 2", args, err)
		}
		if !strings.HasPrefix(errb.String(), "reproduce: ") {
			t.Errorf("reproduce %s: stderr %q, want a usage line", args, errb.String())
		}
		if out.Len() > 0 {
			t.Errorf("reproduce %s printed %q to stdout", args, out.String())
		}
	}
}
