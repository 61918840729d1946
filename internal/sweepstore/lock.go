package sweepstore

import (
	"errors"
	"os"
	"syscall"
)

var errLocked = errors.New("directory lock held")

// lockFile takes an exclusive, non-blocking flock on f. The kernel
// drops it when f is closed or the process dies, so a killed server
// never leaves a stale lock behind.
func lockFile(f *os.File) error {
	err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB)
	if errors.Is(err, syscall.EWOULDBLOCK) {
		return errLocked
	}
	return err
}
