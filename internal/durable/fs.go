package durable

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
)

// Every durable write of the storage subsystem — creating a file,
// writing it, fsyncing it or its directory, renaming, truncating and
// removing — goes through the functions of this file and nowhere else
// (a test parses the durable and eventstore packages to keep it so).
// Each call names its IOSite: which file it touches and what it does.
//
// In production the functions are thin wrappers over the os package.
// InjectFaults lets a crash-point test replace the disk's behaviour at
// every one of these operations: fail the N-th one, or tear it, and
// fail every one after it, as a crash would. Reopening the directory
// afterwards then shows whether each prefix of the writer's operation
// sequence recovers to exactly the state it acknowledged.

// IOSite names one kind of durable write: the file it touches and the
// operation.
type IOSite uint8

// The durable-write sites.
const (
	SiteLockCreate IOSite = iota
	SiteWALCreate
	SiteWALWrite
	SiteWALSync
	SiteWALTruncate
	SiteSegmentCreate
	SiteSegmentWrite
	SiteSegmentSync
	SiteSegmentRemove
	SiteManifestCreate
	SiteManifestWrite
	SiteManifestSync
	SiteManifestRename
	SiteManifestRemove
	SiteDirSync
	SiteDeltaCreate
	SiteDeltaWrite
	SiteDeltaSync
	SiteDeltaTruncate
	SiteDeltaRemove
	NumIOSites
)

var siteNames = [NumIOSites]string{
	"lock.create", "wal.create", "wal.write", "wal.sync", "wal.truncate",
	"segment.create", "segment.write", "segment.sync", "segment.remove",
	"manifest.create", "manifest.write", "manifest.sync", "manifest.rename", "manifest.remove",
	"dir.sync",
	"delta.create", "delta.write", "delta.sync", "delta.truncate", "delta.remove",
}

func (s IOSite) String() string {
	if s < NumIOSites {
		return siteNames[s]
	}
	return fmt.Sprintf("site(%d)", uint8(s))
}

// Fault is a fault injector's verdict on one durable write.
type Fault uint8

const (
	// NoFault lets the operation run.
	NoFault Fault = iota
	// FailOp makes the operation do nothing and return an error.
	FailOp
	// TearOp makes the operation half happen and return an error: a
	// write stores the first half of its bytes, any other operation
	// takes full effect before the error is reported.
	TearOp
)

func (f Fault) String() string {
	switch f {
	case NoFault:
		return "none"
	case FailOp:
		return "fail"
	case TearOp:
		return "tear"
	}
	return fmt.Sprintf("fault(%d)", uint8(f))
}

// errInjected is the error every injected fault returns.
var errInjected = errors.New("durable: injected I/O fault")

var injector atomic.Pointer[func(IOSite) Fault]

// InjectFaults makes fn decide the fate of every durable write in the
// process until the returned restore function is called. It is a test
// hook: crash-point tests use it to fail or tear one operation and
// every one after it.
func InjectFaults(fn func(IOSite) Fault) (restore func()) {
	injector.Store(&fn)
	return func() { injector.Store(nil) }
}

func fault(site IOSite) Fault {
	if fn := injector.Load(); fn != nil {
		return (*fn)(site)
	}
	return NoFault
}

// openFile opens (typically creating) a file for writing.
func openFile(site IOSite, path string, flag int) (*os.File, error) {
	return open(site, func() (*os.File, error) { return os.OpenFile(path, flag, 0o644) })
}

// createTemp creates a uniquely named file in dir.
func createTemp(site IOSite, dir, pattern string) (*os.File, error) {
	return open(site, func() (*os.File, error) { return os.CreateTemp(dir, pattern) })
}

// open runs a file-creating op unless the site fails; a torn create
// leaves the file behind but hands the caller an error.
func open(site IOSite, op func() (*os.File, error)) (*os.File, error) {
	ft := fault(site)
	if ft == FailOp {
		return nil, errInjected
	}
	f, err := op()
	if err == nil && ft == TearOp {
		f.Close()
		return nil, errInjected
	}
	return f, err
}

// writeAll writes data to f.
func writeAll(site IOSite, f *os.File, data []byte) error {
	switch fault(site) {
	case FailOp:
		return errInjected
	case TearOp:
		f.Write(data[:len(data)/2])
		return errInjected
	}
	_, err := f.Write(data)
	return err
}

// syncFile fsyncs f.
func syncFile(site IOSite, f *os.File) error {
	return after(site, f.Sync)
}

// truncateFile cuts f to size bytes.
func truncateFile(site IOSite, f *os.File, size int64) error {
	return after(site, func() error { return f.Truncate(size) })
}

// rename moves oldPath to newPath, atomically replacing it.
func rename(site IOSite, oldPath, newPath string) error {
	return after(site, func() error { return os.Rename(oldPath, newPath) })
}

// remove deletes path.
func remove(site IOSite, path string) error {
	return after(site, func() error { return os.Remove(path) })
}

// syncDir fsyncs a directory, making recent creates, renames and
// removes in it durable. Best effort where directories cannot be
// opened or fsynced; only an injected fault is reported.
func syncDir(dir string) error {
	return after(SiteDirSync, func() error {
		d, err := os.Open(dir)
		if err != nil {
			return nil
		}
		defer d.Close()
		d.Sync() // some filesystems reject directory fsync; that's fine
		return nil
	})
}

// after runs op unless the site fails; a torn op runs and then errors.
func after(site IOSite, op func() error) error {
	switch fault(site) {
	case FailOp:
		return errInjected
	case TearOp:
		op()
		return errInjected
	}
	return op()
}

// RemoveSegmentFile deletes a segment file of dir that no manifest
// edition lists any more.
func RemoveSegmentFile(dir, name string) error {
	return remove(SiteSegmentRemove, filepath.Join(dir, name))
}

// RemoveOrphans deletes what a crash can leave in dir besides the live
// state: segment files not named in live (written by a seal or a
// compaction whose manifest edition never landed — their events
// recover from the WAL — or retired by a compaction) and staged
// manifest editions that were never renamed into place. Best effort.
func RemoveOrphans(dir string, live map[string]bool) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		name := e.Name()
		switch {
		case strings.HasPrefix(name, "seg-") && strings.HasSuffix(name, ".seg") && !live[name]:
			RemoveSegmentFile(dir, name)
		case strings.HasPrefix(name, tmpPrefix):
			remove(SiteManifestRemove, filepath.Join(dir, name))
		}
	}
}
