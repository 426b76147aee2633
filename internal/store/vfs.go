package store

// vfs.go: the filesystem seam of the durable store. Every file
// operation wal.go, snapshot.go, segment.go and recover.go perform
// goes through a VFS so the chaos tests (chaos_test.go) can make the
// disk say no — ENOSPC on the Nth WAL append, EIO on an fsync, a
// short write mid-segment — and prove the store degrades to read-only
// instead of corrupting, and heals when the fault clears. Production
// always runs osFS; the only call sites that bypass the seam are the
// LOCK file (flock needs a real descriptor and guards the process,
// not the data) and mmap itself (which consumes a File's Fd and has
// no write path to fail).
//
// Options.VFS selects the implementation; nil means the real disk.

import (
	"errors"
	"fmt"
	"io"
	"math/bits"
	"os"
	"strings"
	"sync"
)

// File is the slice of *os.File the durable store uses. *os.File
// satisfies it directly; FaultFS wraps one to inject failures.
type File interface {
	io.Reader
	io.ReaderAt
	io.Writer
	Sync() error
	Close() error
	Stat() (os.FileInfo, error)
	Name() string
	// Fd exposes the descriptor for mmap; fault injection never
	// intercepts reads through a mapping.
	Fd() uintptr
}

// VFS abstracts the file operations of the durable store. Paths are
// regular OS paths; semantics of each method match the os package
// function of the same name.
type VFS interface {
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
	Open(name string) (File, error)
	Rename(oldpath, newpath string) error
	Remove(name string) error
	Truncate(name string, size int64) error
	ReadDir(name string) ([]os.DirEntry, error)
	ReadFile(name string) ([]byte, error)
	MkdirAll(path string, perm os.FileMode) error
	CreateTemp(dir, pattern string) (File, error)
	// SyncDir fsyncs a directory so a just-created or just-renamed
	// entry survives a machine crash (no-op on platforms without
	// directory fsync; see lock_other.go).
	SyncDir(dir string) error
}

// osFS is the real filesystem.
type osFS struct{}

func (osFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	return os.OpenFile(name, flag, perm)
}
func (osFS) Open(name string) (File, error)               { return os.Open(name) }
func (osFS) Rename(oldpath, newpath string) error         { return os.Rename(oldpath, newpath) }
func (osFS) Remove(name string) error                     { return os.Remove(name) }
func (osFS) Truncate(name string, size int64) error       { return os.Truncate(name, size) }
func (osFS) ReadDir(name string) ([]os.DirEntry, error)   { return os.ReadDir(name) }
func (osFS) ReadFile(name string) ([]byte, error)         { return os.ReadFile(name) }
func (osFS) MkdirAll(path string, perm os.FileMode) error { return os.MkdirAll(path, perm) }
func (osFS) CreateTemp(dir, pattern string) (File, error) { return os.CreateTemp(dir, pattern) }
func (osFS) SyncDir(dir string) error                     { return syncDir(dir) }

// Portable stand-ins for the errno conditions the chaos suite
// simulates. Real syscall errnos are platform-specific; what the
// store's error handling keys on is only that the error is non-nil
// and sticky, so distinct sentinel values are sufficient and keep the
// tests buildable everywhere.
var (
	// ErrNoSpace simulates ENOSPC (disk full).
	ErrNoSpace = errors.New("injected fault: no space left on device")
	// ErrIO simulates EIO (device-level input/output error).
	ErrIO = errors.New("injected fault: input/output error")
)

// FaultOp selects which operations a FaultRule arms, as a bitmask so
// one rule can cover several (OpWrite|OpSync: every path to stable
// storage).
type FaultOp uint32

const (
	OpOpen FaultOp = 1 << iota // OpenFile, Open and CreateTemp
	OpRead
	OpWrite
	OpSync // file fsync and SyncDir
	OpClose
	OpRename
	OpRemove
	OpTruncate
	OpReadDir // ReadDir and ReadFile
	OpMkdir

	OpAny = ^FaultOp(0)
)

// FaultRule makes matching operations fail. A rule matches an
// operation when the op kind is in Ops and the target path contains
// Path as a substring ("" matches everything); the first After
// matches are let through, then the rule fires. Once controls
// whether it disarms after firing (a transient glitch) or keeps
// firing (a full disk stays full).
type FaultRule struct {
	// Ops is the operation kinds the rule arms (bitmask; OpAny for all).
	Ops FaultOp
	// Path is a substring the operation's path must contain; "" matches
	// every path. WAL files contain "wal-", segment files "seg-",
	// segment temp files ".tmp".
	Path string
	// After lets this many matching operations through before the rule
	// fires: fail-the-Nth-op scheduling.
	After int
	// Err is the injected error (ErrNoSpace, ErrIO, or any other).
	Err error
	// ShortWrite, on a write op, consumes half the buffer before
	// failing — the torn-write fingerprint — instead of failing
	// cleanly at offset zero.
	ShortWrite bool
	// Once disarms the rule after its first firing; otherwise it is
	// sticky and every later match fails too.
	Once bool

	fired bool
}

// FaultFS wraps a VFS and injects failures per a mutable rule set.
// Safe for concurrent use; rules can be added and cleared while the
// store runs, which is how the chaos tests "repair the disk".
type FaultFS struct {
	inner VFS

	mu       sync.Mutex
	rules    []*FaultRule
	injected uint64
}

// NewFaultFS wraps inner (nil: the real filesystem) with no rules
// armed: transparent until Fail is called.
func NewFaultFS(inner VFS) *FaultFS {
	if inner == nil {
		inner = osFS{}
	}
	return &FaultFS{inner: inner}
}

// Fail arms a rule. The returned pointer stays live in the rule set;
// callers must not mutate it after arming.
func (ffs *FaultFS) Fail(rule FaultRule) *FaultRule {
	if rule.Err == nil {
		rule.Err = ErrIO
	}
	r := &rule
	ffs.mu.Lock()
	ffs.rules = append(ffs.rules, r)
	ffs.mu.Unlock()
	return r
}

// Clear disarms every rule: the disk is healthy again.
func (ffs *FaultFS) Clear() {
	ffs.mu.Lock()
	ffs.rules = nil
	ffs.mu.Unlock()
}

// Injected returns how many operations have failed (or short-written)
// by injection so far.
func (ffs *FaultFS) Injected() uint64 {
	ffs.mu.Lock()
	defer ffs.mu.Unlock()
	return ffs.injected
}

// check consults the rule set for an op on path. It returns the
// injected error, and shortWrite=true when the matching rule wants a
// torn write rather than a clean failure.
func (ffs *FaultFS) check(op FaultOp, path string) (err error, shortWrite bool) {
	ffs.mu.Lock()
	defer ffs.mu.Unlock()
	for _, r := range ffs.rules {
		if r.Ops&op == 0 {
			continue
		}
		if r.Path != "" && !strings.Contains(path, r.Path) {
			continue
		}
		if r.Once && r.fired {
			continue
		}
		if r.After > 0 {
			r.After--
			continue
		}
		r.fired = true
		ffs.injected++
		return fmt.Errorf("%s %s: %w", opName(op), path, r.Err), r.ShortWrite
	}
	return nil, false
}

// opNames spells the FaultOp bits in order, for injected errors.
var opNames = [...]string{"open", "read", "write", "sync", "close", "rename", "remove", "truncate", "readdir", "mkdir"}

func opName(op FaultOp) string { return opNames[bits.TrailingZeros32(uint32(op))] }

// gate runs do unless a rule fails op on path first.
func gate[T any](ffs *FaultFS, op FaultOp, path string, do func() (T, error)) (T, error) {
	if err, _ := ffs.check(op, path); err != nil {
		var zero T
		return zero, err
	}
	return do()
}

// gateErr is gate for the operations that return only an error.
func (ffs *FaultFS) gateErr(op FaultOp, path string, do func() error) error {
	if err, _ := ffs.check(op, path); err != nil {
		return err
	}
	return do()
}

// file threads an opened descriptor's operations through the rule set.
func (ffs *FaultFS) file(f File, err error) (File, error) {
	if err != nil {
		return nil, err
	}
	return &faultFile{f: f, ffs: ffs}, nil
}

func (ffs *FaultFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	return ffs.file(gate(ffs, OpOpen, name, func() (File, error) { return ffs.inner.OpenFile(name, flag, perm) }))
}

func (ffs *FaultFS) Open(name string) (File, error) {
	return ffs.file(gate(ffs, OpOpen, name, func() (File, error) { return ffs.inner.Open(name) }))
}

func (ffs *FaultFS) CreateTemp(dir, pattern string) (File, error) {
	return ffs.file(gate(ffs, OpOpen, dir+"/"+pattern, func() (File, error) { return ffs.inner.CreateTemp(dir, pattern) }))
}

func (ffs *FaultFS) Rename(oldpath, newpath string) error {
	return ffs.gateErr(OpRename, newpath, func() error { return ffs.inner.Rename(oldpath, newpath) })
}

func (ffs *FaultFS) Remove(name string) error {
	return ffs.gateErr(OpRemove, name, func() error { return ffs.inner.Remove(name) })
}

func (ffs *FaultFS) Truncate(name string, size int64) error {
	return ffs.gateErr(OpTruncate, name, func() error { return ffs.inner.Truncate(name, size) })
}

func (ffs *FaultFS) ReadDir(name string) ([]os.DirEntry, error) {
	return gate(ffs, OpReadDir, name, func() ([]os.DirEntry, error) { return ffs.inner.ReadDir(name) })
}

func (ffs *FaultFS) ReadFile(name string) ([]byte, error) {
	return gate(ffs, OpReadDir, name, func() ([]byte, error) { return ffs.inner.ReadFile(name) })
}

func (ffs *FaultFS) MkdirAll(path string, perm os.FileMode) error {
	return ffs.gateErr(OpMkdir, path, func() error { return ffs.inner.MkdirAll(path, perm) })
}

func (ffs *FaultFS) SyncDir(dir string) error {
	return ffs.gateErr(OpSync, dir, func() error { return ffs.inner.SyncDir(dir) })
}

// faultFile threads per-descriptor operations back through the rule
// set, keyed by the file's name.
type faultFile struct {
	f   File
	ffs *FaultFS
}

func (f *faultFile) Read(p []byte) (int, error) {
	return gate(f.ffs, OpRead, f.f.Name(), func() (int, error) { return f.f.Read(p) })
}

func (f *faultFile) ReadAt(p []byte, off int64) (int, error) {
	return gate(f.ffs, OpRead, f.f.Name(), func() (int, error) { return f.f.ReadAt(p, off) })
}

func (f *faultFile) Write(p []byte) (int, error) {
	err, short := f.ffs.check(OpWrite, f.f.Name())
	if err != nil {
		if short && len(p) > 1 {
			// Torn write: half the buffer reaches the file, then the
			// device gives out. The on-disk tail ends mid-frame.
			n, werr := f.f.Write(p[:len(p)/2])
			if werr != nil {
				return n, werr
			}
			return n, err
		}
		return 0, err
	}
	return f.f.Write(p)
}

func (f *faultFile) Sync() error { return f.ffs.gateErr(OpSync, f.f.Name(), f.f.Sync) }

func (f *faultFile) Close() error {
	if err, _ := f.ffs.check(OpClose, f.f.Name()); err != nil {
		// The descriptor still needs releasing or long chaos runs leak.
		f.f.Close()
		return err
	}
	return f.f.Close()
}

func (f *faultFile) Stat() (os.FileInfo, error) { return f.f.Stat() }
func (f *faultFile) Name() string               { return f.f.Name() }
func (f *faultFile) Fd() uintptr                { return f.f.Fd() }
