package durable

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"path"
	"sort"
	"strconv"
	"strings"

	"rhsc/internal/metrics"
)

const (
	tmpPrefix    = ".tmp-"
	genSuffix    = ".dur"
	manifestName = "MANIFEST"
	// QuarantineDir is where corrupt files are moved aside, relative
	// to the store directory.
	QuarantineDir = "corrupt"
	// KeepGenerations is how many committed generations of each name
	// survive pruning. Two, not one: the newest generation is the one
	// a crash may have caught mid-commit, so its predecessor must
	// outlive the commit that supersedes it.
	KeepGenerations = 2
)

// Store is a directory of named, generation-numbered, framed objects
// with a crash-consistent commit protocol. One Store owns one
// directory; methods are not safe for concurrent use (the serving
// layer serialises spool access, the CLI is single-threaded).
//
// On-disk layout:
//
//	<dir>/<name>.g<8-digit gen>.dur   committed generations
//	<dir>/MANIFEST                    framed JSON head pointers
//	<dir>/.tmp-*                      commits in flight (crash debris)
//	<dir>/corrupt/                    quarantined files + .reason notes
//
// Commit: write .tmp, fsync, rename to the generation name, fsync the
// directory, then update MANIFEST the same way. Recovery (Load) never
// trusts the manifest or a filename: it scans generations newest-first
// and fully verifies each frame until one passes, quarantining the
// invalid ones it skipped. A crash at any write point therefore lands
// the next reader on the newest fully-valid generation.
type Store struct {
	fs  FS
	dir string
	c   *metrics.DurableCounters
}

// Open binds a store to dir (created if missing), sweeping any
// crash-orphaned temp files. counters may be nil for a private set.
func Open(fsys FS, dir string, counters *metrics.DurableCounters) (*Store, error) {
	if counters == nil {
		counters = &metrics.DurableCounters{}
	}
	if err := fsys.MkdirAll(dir); err != nil {
		return nil, err
	}
	s := &Store{fs: fsys, dir: dir, c: counters}
	// Temp files are pre-rename by construction: deleting them can
	// never lose a committed generation.
	names, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	for _, n := range names {
		if strings.HasPrefix(n, tmpPrefix) {
			_ = fsys.Remove(path.Join(dir, n))
		}
	}
	return s, nil
}

// genFile formats the on-disk name of one generation.
func genFile(name string, gen uint64) string {
	return fmt.Sprintf("%s.g%08d%s", name, gen, genSuffix)
}

// parseGen splits a directory entry into (object name, generation).
func parseGen(file string) (string, uint64, bool) {
	if !strings.HasSuffix(file, genSuffix) || strings.HasPrefix(file, tmpPrefix) {
		return "", 0, false
	}
	base := strings.TrimSuffix(file, genSuffix)
	i := strings.LastIndex(base, ".g")
	if i <= 0 {
		return "", 0, false
	}
	gen, err := strconv.ParseUint(base[i+2:], 10, 64)
	if err != nil {
		return "", 0, false
	}
	return base[:i], gen, true
}

// ValidName reports whether name can be stored: path separators and
// the generation marker are reserved.
func ValidName(name string) bool {
	return name != "" && name != manifestName &&
		!strings.ContainsAny(name, "/\\") && !strings.Contains(name, ".g") &&
		!strings.HasPrefix(name, ".")
}

// generations lists name's committed generations, ascending.
func (s *Store) generations(name string) ([]uint64, error) {
	files, err := s.fs.ReadDir(s.dir)
	if err != nil {
		return nil, err
	}
	var gens []uint64
	for _, f := range files {
		if n, g, ok := parseGen(f); ok && n == name {
			gens = append(gens, g)
		}
	}
	sort.Slice(gens, func(i, j int) bool { return gens[i] < gens[j] })
	return gens, nil
}

// Names lists the distinct object names with at least one committed
// generation.
func (s *Store) Names() ([]string, error) {
	files, err := s.fs.ReadDir(s.dir)
	if err != nil {
		return nil, err
	}
	seen := map[string]bool{}
	var names []string
	for _, f := range files {
		if n, _, ok := parseGen(f); ok && !seen[n] {
			seen[n] = true
			names = append(names, n)
		}
	}
	sort.Strings(names)
	return names, nil
}

// Commit durably publishes a new generation of name: write the framed
// payload to a temp file, fsync, rename into place, fsync the
// directory, update the manifest, prune stale generations. On any
// error nothing is published — the previous generation remains the
// newest valid one (temp debris is swept by Open). Returns the
// generation number committed.
func (s *Store) Commit(name string, write func(w io.Writer) error) (uint64, error) {
	if !ValidName(name) {
		return 0, fmt.Errorf("durable: unstorable name %q", name)
	}
	gens, err := s.generations(name)
	if err != nil {
		return 0, err
	}
	gen := uint64(1)
	if len(gens) > 0 {
		gen = gens[len(gens)-1] + 1
	}

	tmp := path.Join(s.dir, tmpPrefix+genFile(name, gen))
	f, err := s.fs.Create(tmp)
	if err != nil {
		return 0, fmt.Errorf("durable: commit %s: %w", name, err)
	}
	fw := NewWriter(f)
	err = write(fw)
	if err == nil {
		err = fw.Seal()
	}
	if err == nil {
		err = f.Sync()
		s.c.Fsyncs.Add(1)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		_ = s.fs.Remove(tmp)
		return 0, fmt.Errorf("durable: commit %s: %w", name, err)
	}
	final := path.Join(s.dir, genFile(name, gen))
	if err := s.fs.Rename(tmp, final); err != nil {
		_ = s.fs.Remove(tmp)
		return 0, fmt.Errorf("durable: commit %s: %w", name, err)
	}
	s.c.Renames.Add(1)
	if err := s.fs.SyncDir(s.dir); err != nil {
		return 0, fmt.Errorf("durable: commit %s: %w", name, err)
	}
	s.c.Fsyncs.Add(1)
	s.c.Commits.Add(1)
	s.c.CommitBytes.Add(int64(fw.total))

	// The generation is durable regardless of what happens to the
	// manifest or pruning below: recovery scans, the manifest is a
	// head hint for operators and scrub.
	if err := s.writeManifest(); err != nil {
		return gen, fmt.Errorf("durable: commit %s: manifest: %w", name, err)
	}
	s.prune(name, gen)
	return gen, nil
}

// prune removes generations older than the KeepGenerations newest.
// Best-effort: a failed remove leaves a stale-but-valid file that
// recovery will simply never prefer.
func (s *Store) prune(name string, newest uint64) {
	gens, err := s.generations(name)
	if err != nil {
		return
	}
	for _, g := range gens {
		if g+KeepGenerations <= newest {
			_ = s.fs.Remove(path.Join(s.dir, genFile(name, g)))
		}
	}
}

// manifest is the framed JSON head-pointer record.
type manifest struct {
	// Heads maps object name to the generation most recently committed.
	Heads map[string]uint64 `json:"heads"`
}

// writeManifest publishes the current head set with the same
// tmp/fsync/rename/dirsync sequence as payload commits.
func (s *Store) writeManifest() error {
	names, err := s.Names()
	if err != nil {
		return err
	}
	m := manifest{Heads: map[string]uint64{}}
	for _, n := range names {
		gens, err := s.generations(n)
		if err != nil {
			return err
		}
		m.Heads[n] = gens[len(gens)-1]
	}
	blob, err := json.Marshal(&m)
	if err != nil {
		return err
	}
	tmp := path.Join(s.dir, tmpPrefix+manifestName)
	f, err := s.fs.Create(tmp)
	if err != nil {
		return err
	}
	fw := NewWriter(f)
	_, err = fw.Write(blob)
	if err == nil {
		err = fw.Seal()
	}
	if err == nil {
		err = f.Sync()
		s.c.Fsyncs.Add(1)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		_ = s.fs.Remove(tmp)
		return err
	}
	if err := s.fs.Rename(tmp, path.Join(s.dir, manifestName)); err != nil {
		_ = s.fs.Remove(tmp)
		return err
	}
	s.c.Renames.Add(1)
	if err := s.fs.SyncDir(s.dir); err != nil {
		return err
	}
	s.c.Fsyncs.Add(1)
	return nil
}

// readManifest returns the head map, or nil when the manifest is
// missing or (after a crash mid-update) invalid — never an error:
// the manifest is advisory.
func (s *Store) readManifest() map[string]uint64 {
	f, err := s.fs.Open(path.Join(s.dir, manifestName))
	if err != nil {
		return nil
	}
	defer f.Close()
	fr, err := NewReader(f)
	if err != nil {
		return nil
	}
	var m manifest
	if err := json.NewDecoder(fr).Decode(&m); err != nil {
		return nil
	}
	if err := fr.Verify(); err != nil {
		return nil
	}
	return m.Heads
}

// Load opens name's newest fully-valid generation and hands the
// verified payload stream to read. Generations that fail verification
// — or whose read callback reports corruption — are quarantined and
// skipped, falling back to the next older one; any other read error
// aborts (a config mismatch will not be fixed by older data). Returns
// the generation served. ErrNotExist when the store holds none.
func (s *Store) Load(name string, read func(r io.Reader) error) (uint64, error) {
	gens, err := s.generations(name)
	if err != nil {
		return 0, err
	}
	if len(gens) == 0 {
		return 0, fmt.Errorf("durable: load %s: %w", name, ErrNotExist)
	}
	skipped := 0
	var firstErr error
	for i := len(gens) - 1; i >= 0; i-- {
		gen := gens[i]
		err := s.loadOne(genFile(name, gen), read)
		if err == nil {
			if skipped > 0 {
				s.c.Recoveries.Add(1)
				s.c.SkippedGenerations.Add(int64(skipped))
			}
			return gen, nil
		}
		if !errors.Is(err, ErrCorrupt) {
			return 0, fmt.Errorf("durable: load %s g%d: %w", name, gen, err)
		}
		s.c.DetectedCorruptions.Add(1)
		if firstErr == nil {
			firstErr = err
		}
		_ = s.Quarantine(genFile(name, gen), err.Error())
		skipped++
	}
	return 0, fmt.Errorf("durable: load %s: all %d generation(s) invalid: %w",
		name, skipped, firstErr)
}

// loadOne verifies one generation file end to end while read consumes
// its payload.
func (s *Store) loadOne(file string, read func(r io.Reader) error) error {
	f, err := s.fs.Open(path.Join(s.dir, file))
	if err != nil {
		return corrupt("durable: open generation", err)
	}
	defer f.Close()
	fr, err := NewReader(f)
	if err != nil {
		return err
	}
	if err := read(fr); err != nil {
		return err
	}
	return fr.Verify()
}

// Remove deletes every generation of name (spool consumption after a
// successful re-admission) and refreshes the manifest.
func (s *Store) Remove(name string) error {
	gens, err := s.generations(name)
	if err != nil {
		return err
	}
	for _, g := range gens {
		if err := s.fs.Remove(path.Join(s.dir, genFile(name, g))); err != nil {
			return err
		}
	}
	return s.writeManifest()
}

// Quarantine moves file (a name within the store directory) into the
// corrupt/ subdirectory with a .reason note, so operators can inspect
// what recovery refused without the bad bytes shadowing good ones.
func (s *Store) Quarantine(file, reason string) error {
	qdir := path.Join(s.dir, QuarantineDir)
	if err := s.fs.MkdirAll(qdir); err != nil {
		return err
	}
	if err := s.fs.Rename(path.Join(s.dir, file), path.Join(qdir, file)); err != nil {
		return err
	}
	s.c.Quarantined.Add(1)
	// The note is best-effort diagnostics; its loss costs nothing.
	if f, err := s.fs.Create(path.Join(qdir, file+".reason")); err == nil {
		_, _ = f.Write([]byte(reason + "\n"))
		_ = f.Close()
	}
	return nil
}

// QuarantineName moves every generation of name into corrupt/ with the
// given reason — for callers whose payload verified but cannot be used
// (e.g. a spooled job whose spec no longer validates): leaving it in
// place would fail every future recovery sweep the same way.
func (s *Store) QuarantineName(name, reason string) error {
	gens, err := s.generations(name)
	if err != nil {
		return err
	}
	var errs []error
	for _, g := range gens {
		if err := s.Quarantine(genFile(name, g), reason); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// ScrubResult is one file's verdict in a scrub pass.
type ScrubResult struct {
	File  string `json:"file"`
	Gen   uint64 `json:"gen,omitempty"`
	Bytes uint64 `json:"bytes,omitempty"` // verified payload bytes
	OK    bool   `json:"ok"`
	Error string `json:"error,omitempty"`
}

// ScrubReport summarises a full-store verification pass.
type ScrubReport struct {
	Dir     string `json:"dir"`
	Checked int    `json:"checked"`
	Bad     int    `json:"bad"`
	// ManifestDrift lists names whose manifest head is missing or
	// invalid on disk — expected only in the crash window between a
	// payload rename and the manifest update.
	ManifestDrift []string      `json:"manifest_drift,omitempty"`
	Results       []ScrubResult `json:"results"`
}

// Scrub verifies every committed generation byte for byte (read-only:
// nothing is quarantined or repaired — that is Load's job) and cross-
// checks the manifest heads. A pass that finds at least one bad file
// bumps ScrubFailures.
func (s *Store) Scrub() (*ScrubReport, error) {
	files, err := s.fs.ReadDir(s.dir)
	if err != nil {
		return nil, err
	}
	rep := &ScrubReport{Dir: s.dir}
	valid := map[string]uint64{} // name -> newest verified gen
	for _, file := range files {
		name, gen, ok := parseGen(file)
		if !ok {
			continue
		}
		res := ScrubResult{File: file, Gen: gen}
		var fr *Reader
		err := s.loadOne(file, func(r io.Reader) error {
			fr = r.(*Reader)
			return nil // Verify drains everything
		})
		if err != nil {
			res.Error = err.Error()
		} else {
			res.OK = true
			res.Bytes = fr.PayloadBytes()
			if gen > valid[name] {
				valid[name] = gen
			}
		}
		rep.Checked++
		if !res.OK {
			rep.Bad++
		}
		rep.Results = append(rep.Results, res)
	}
	for name, head := range s.readManifest() {
		if valid[name] < head {
			rep.ManifestDrift = append(rep.ManifestDrift, name)
		}
	}
	sort.Strings(rep.ManifestDrift)
	if rep.Bad > 0 {
		s.c.ScrubFailures.Add(1)
	}
	return rep, nil
}
