//go:build unix

package durable

import (
	"fmt"
	"os"
	"path/filepath"
	"syscall"
)

// LockDir takes the directory's exclusive advisory lock (an flock on a
// LOCK file), enforcing the subsystem's single-writer assumption across
// processes and across opens within one process. A crashed process
// releases its flock automatically, so recovery after a crash is never
// blocked by a stale lock file.
func LockDir(dir string) (*DirLock, error) {
	f, err := openFile(SiteLockCreate, filepath.Join(dir, "LOCK"), os.O_CREATE|os.O_RDWR)
	if err != nil {
		return nil, fmt.Errorf("durable: %w", err)
	}
	if err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		f.Close()
		return nil, fmt.Errorf("durable: %s is already open by another store (flock: %w)", dir, err)
	}
	return &DirLock{f: f}, nil
}

// DirLock holds a directory's exclusive lock until Release.
type DirLock struct{ f *os.File }

// Release drops the lock. Safe to call more than once.
func (l *DirLock) Release() error {
	if l == nil || l.f == nil {
		return nil
	}
	err := l.f.Close() // closing the descriptor releases the flock
	l.f = nil
	return err
}
