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
// binary, run again with PFVERIFY_ARGS set) for each bad invocation,
// and requires exit status 2 with a "pfverify: " line on stderr and
// nothing on stdout. Unchecked, a stray argument is ignored, -iters -3
// passes vacuously and -qubits 0 panics in the random-circuit generator.
func TestBadFlagsExitTwoUpfront(t *testing.T) {
	if args, ok := os.LookupEnv("PFVERIFY_ARGS"); ok {
		os.Args = append([]string{"pfverify"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	for _, args := range []string{
		"stray",
		"-iters -3",
		"-iters 0",
		"-belliters 0",
		"-qubits 0",
		// Past the state-vector range, but never 30 or 31: on code that
		// failed to reject them they would allocate 16 or 32 GiB.
		"-qubits 64",
		"-gates -1",
		"-workers -1",
		"-bell -belliters -2",
	} {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		cmd := exec.CommandContext(ctx, os.Args[0], "-test.run=^TestBadFlagsExitTwoUpfront$")
		cmd.Dir = t.TempDir()
		cmd.Env = append(os.Environ(), "PFVERIFY_ARGS="+args)
		var out, errb bytes.Buffer
		cmd.Stdin = strings.NewReader("")
		cmd.Stdout, cmd.Stderr = &out, &errb
		err := cmd.Run()
		cancel()
		var ee *exec.ExitError
		if !errors.As(err, &ee) || ee.ExitCode() != 2 {
			t.Errorf("pfverify %s: %v, want exit status 2", args, err)
		}
		if !strings.HasPrefix(errb.String(), "pfverify: ") {
			t.Errorf("pfverify %s: stderr %q, want a usage line", args, errb.String())
		}
		if out.Len() > 0 {
			t.Errorf("pfverify %s printed %q to stdout", args, out.String())
		}
	}
}
