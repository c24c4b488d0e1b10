package durable

import (
	"errors"
	"fmt"
	"strings"
	"sync"
)

// Injected fault sentinels. ErrCrashed marks every operation after the
// injected crash point — the moment the simulated machine died;
// ErrNoSpace and ErrInjectedIO are the transient-failure flavours
// (ENOSPC, failed fsync/rename) that a commit must surface as an error
// while leaving the store recoverable.
var (
	ErrCrashed    = errors.New("durable: injected crash (process died here)")
	ErrNoSpace    = errors.New("durable: injected ENOSPC")
	ErrInjectedIO = errors.New("durable: injected I/O failure")
)

// Plan scripts a FaultFS deterministically — no randomness, so every
// failing run is exactly reproducible, mirroring the hetero chaos
// harness and the resilience Injector.
//
// Mutating operations (Create, Write, Sync, Close of a written file,
// Rename, Remove, MkdirAll, SyncDir) are numbered 1,2,3,… in call
// order, so the zero-value Plan injects nothing. Reads are not
// numbered: crashes happen while writing.
type Plan struct {
	// CrashAtOp kills the filesystem at that mutating-op index: a
	// Write lands only TornBytes of its buffer (a torn write), any
	// other op does not happen at all; every later op fails with
	// ErrCrashed. Zero or negative means never.
	CrashAtOp int
	// TornBytes is how many leading bytes of the crashing Write reach
	// the file (0 = none).
	TornBytes int

	// FailAtOp makes that single mutating op fail with FailErr
	// (default ErrInjectedIO) WITHOUT crashing: the op does not apply,
	// the error returns, and the filesystem keeps working — modelling
	// ENOSPC, a failed fsync, or a failed rename.
	FailAtOp int
	// FailErr is the error FailAtOp returns.
	FailErr error

	// FlipBitPath, when non-empty, flips FlipBitOffset's bit (bit
	// index: byte*8 + bit) in every file whose path contains the
	// substring, as the file is read back — modelling at-rest bit rot
	// without touching the stored bytes.
	FlipBitPath   string
	FlipBitOffset int64
}

// FaultFS wraps an inner FS with the deterministic fault Plan. Safe
// for concurrent use; the op counter is global across files, which is
// what makes "crash at write point N" well-defined for a scripted
// commit sequence.
type FaultFS struct {
	inner FS
	plan  Plan

	mu      sync.Mutex
	ops     int
	crashed bool
}

// NewFaultFS builds a fault-injecting view of inner.
func NewFaultFS(inner FS, plan Plan) *FaultFS {
	if plan.FailErr == nil {
		plan.FailErr = ErrInjectedIO
	}
	return &FaultFS{inner: inner, plan: plan}
}

// Ops reports how many mutating operations have been issued so far.
// Run a script once with a never-crashing plan to learn its op count,
// then sweep CrashAtOp over [1, Ops()] — the crash-at-every-write-point
// matrix.
func (f *FaultFS) Ops() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.ops
}

// op gates one mutating operation: it returns (deadErr, failErr,
// torn). deadErr non-nil means the op must not apply (crashed before
// or at this op, with torn>=0 telling a Write how many bytes still
// land); failErr non-nil means the op fails transiently.
func (f *FaultFS) op() (dead error, fail error, torn int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crashed {
		return ErrCrashed, nil, 0
	}
	f.ops++
	idx := f.ops
	if f.plan.CrashAtOp > 0 && idx == f.plan.CrashAtOp {
		f.crashed = true
		return ErrCrashed, nil, f.plan.TornBytes
	}
	if f.plan.FailAtOp > 0 && idx == f.plan.FailAtOp {
		return nil, f.plan.FailErr, 0
	}
	return nil, nil, 0
}

// Create counts as one mutating op.
func (f *FaultFS) Create(name string) (File, error) {
	dead, fail, _ := f.op()
	if dead != nil {
		return nil, dead
	}
	if fail != nil {
		return nil, fmt.Errorf("create %s: %w", name, fail)
	}
	file, err := f.inner.Create(name)
	if err != nil {
		return nil, err
	}
	return &faultFile{fs: f, f: file, name: name, writable: true}, nil
}

// Open is not a mutating op; reads only rot bits per the plan.
func (f *FaultFS) Open(name string) (File, error) {
	file, err := f.inner.Open(name)
	if err != nil {
		return nil, err
	}
	ff := &faultFile{fs: f, f: file, name: name}
	if f.plan.FlipBitPath != "" && strings.Contains(name, f.plan.FlipBitPath) {
		ff.flipAt = f.plan.FlipBitOffset
		ff.flip = true
	}
	return ff, nil
}

func (f *FaultFS) Rename(o, n string) error {
	dead, fail, _ := f.op()
	if dead != nil {
		return dead
	}
	if fail != nil {
		return fmt.Errorf("rename %s: %w", o, fail)
	}
	return f.inner.Rename(o, n)
}

func (f *FaultFS) Remove(name string) error {
	dead, fail, _ := f.op()
	if dead != nil {
		return dead
	}
	if fail != nil {
		return fmt.Errorf("remove %s: %w", name, fail)
	}
	return f.inner.Remove(name)
}

func (f *FaultFS) MkdirAll(dir string) error {
	dead, fail, _ := f.op()
	if dead != nil {
		return dead
	}
	if fail != nil {
		return fmt.Errorf("mkdir %s: %w", dir, fail)
	}
	return f.inner.MkdirAll(dir)
}

func (f *FaultFS) ReadDir(dir string) ([]string, error) { return f.inner.ReadDir(dir) }

func (f *FaultFS) SyncDir(dir string) error {
	dead, fail, _ := f.op()
	if dead != nil {
		return dead
	}
	if fail != nil {
		return fmt.Errorf("syncdir %s: %w", dir, fail)
	}
	return f.inner.SyncDir(dir)
}

// faultFile routes a file's Write/Sync/Close through the op counter
// and applies read-time bit rot.
type faultFile struct {
	fs       *FaultFS
	f        File
	name     string
	writable bool

	flip   bool
	flipAt int64
	rd     int64 // read cursor, for locating flipAt
}

func (ff *faultFile) Write(p []byte) (int, error) {
	dead, fail, torn := ff.fs.op()
	if dead != nil {
		// The torn prefix is what made it to the platters before the
		// crash; it must be durable so recovery sees the half-write.
		if torn > 0 {
			if torn > len(p) {
				torn = len(p)
			}
			n, _ := ff.f.Write(p[:torn])
			_ = ff.f.Sync()
			return n, dead
		}
		return 0, dead
	}
	if fail != nil {
		return 0, fmt.Errorf("write %s: %w", ff.name, fail)
	}
	return ff.f.Write(p)
}

func (ff *faultFile) Read(p []byte) (int, error) {
	n, err := ff.f.Read(p)
	if ff.flip && n > 0 {
		lo, hi := ff.rd, ff.rd+int64(n)
		if byteAt := ff.flipAt / 8; byteAt >= lo && byteAt < hi {
			p[byteAt-lo] ^= 1 << (ff.flipAt % 8)
		}
		ff.rd = hi
	}
	return n, err
}

func (ff *faultFile) Sync() error {
	if !ff.writable {
		return ff.f.Sync()
	}
	dead, fail, _ := ff.fs.op()
	if dead != nil {
		return dead
	}
	if fail != nil {
		return fmt.Errorf("sync %s: %w", ff.name, fail)
	}
	return ff.f.Sync()
}

func (ff *faultFile) Close() error {
	if !ff.writable {
		return ff.f.Close()
	}
	dead, fail, _ := ff.fs.op()
	if dead != nil {
		// A crashed process's descriptors are gone either way; close
		// the real file so temp dirs can be cleaned up.
		_ = ff.f.Close()
		return dead
	}
	if fail != nil {
		_ = ff.f.Close()
		return fmt.Errorf("close %s: %w", ff.name, fail)
	}
	return ff.f.Close()
}
