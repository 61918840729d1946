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
// binary, run again with ARCHSIM_ARGS set) for each bad invocation,
// and requires exit status 2 with an "archsim: " line on stderr and
// nothing on stdout. Unchecked, an unknown -chip is reported only after
// the program is read and assembled, a -qubits below the SC17 plane
// fails in the QCU constructor, and a second path is ignored.
func TestBadFlagsExitTwoUpfront(t *testing.T) {
	if args, ok := os.LookupEnv("ARCHSIM_ARGS"); ok {
		os.Args = append([]string{"archsim"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	for _, args := range []string{
		"-chip bogus",
		"-qubits 5",
		"-qubits 16",
		"-chip qx -qubits 16",
		// Past each chip's range, but never 30 or 31 on qx: on code that
		// failed to reject them they would allocate 16 or 32 GiB. At 63
		// the amplitude count overflows, and nothing is allocated.
		"-chip qx -qubits 63",
		"-qubits 5000",
		"plane.qisa stray",
	} {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		cmd := exec.CommandContext(ctx, os.Args[0], "-test.run=^TestBadFlagsExitTwoUpfront$")
		cmd.Dir = t.TempDir()
		cmd.Env = append(os.Environ(), "ARCHSIM_ARGS="+args)
		var out, errb bytes.Buffer
		cmd.Stdin = strings.NewReader("")
		cmd.Stdout, cmd.Stderr = &out, &errb
		err := cmd.Run()
		cancel()
		var ee *exec.ExitError
		if !errors.As(err, &ee) || ee.ExitCode() != 2 {
			t.Errorf("archsim %s: %v, want exit status 2", args, err)
		}
		if !strings.HasPrefix(errb.String(), "archsim: ") {
			t.Errorf("archsim %s: stderr %q, want a usage line", args, errb.String())
		}
		if out.Len() > 0 {
			t.Errorf("archsim %s printed %q to stdout", args, out.String())
		}
	}
}
