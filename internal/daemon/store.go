package daemon

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
	"time"
)

// CheckpointStore persists session envelopes between daemon lifetimes.
// The Manager flushes through a store (periodically for dirty sessions,
// completely at graceful shutdown) and reloads from it at boot. A store
// must tolerate crashes mid-Save: a partial write may never surface as
// a corrupt envelope at the next Load.
type CheckpointStore interface {
	// Save durably persists one envelope, replacing any previous
	// envelope with the same ID.
	Save(env Envelope) error
	// Load returns every readable envelope, in deterministic order,
	// alongside the envelopes it quarantined as unreadable. A corrupt
	// envelope must not fail the whole Load — it is set aside and
	// reported so the remaining sessions still boot.
	Load() ([]Envelope, []Quarantined, error)
	// Delete removes the envelope for id. Deleting an absent envelope
	// is not an error.
	Delete(id string) error
	// Quarantine sets the envelope for id aside so the next Load skips
	// it (used when an envelope parses but fails to restore).
	Quarantine(id string) error
}

// Quarantined reports one envelope set aside during Load or restore:
// the session (or file) it belonged to, where it was moved, and why.
type Quarantined struct {
	ID   string
	Path string
	Err  error
}

const (
	envelopeSuffix = ".session.json"
	corruptSuffix  = ".corrupt"
	tmpPrefix      = ".tmp-"
)

// DirStore is the crash-safe disk CheckpointStore: one
// "<id>.session.json" envelope per session in a flat directory. Writes
// go to a temp file in the same directory and are renamed into place,
// so a crash mid-write leaves only a stale temp file (swept at the next
// Load), never a truncated envelope under the live name. Envelopes that
// do turn up unreadable are renamed to "<name>.corrupt" and reported
// instead of blocking the boot.
type DirStore struct {
	dir string
}

// NewDirStore returns a store over dir. The directory is created lazily
// at the first Save; a missing directory Loads as empty.
func NewDirStore(dir string) *DirStore { return &DirStore{dir: dir} }

// Dir returns the store's directory.
func (st *DirStore) Dir() string { return st.dir }

func (st *DirStore) pathFor(id string) string {
	return filepath.Join(st.dir, id+envelopeSuffix)
}

// Save writes the envelope atomically: marshal, write + fsync a temp
// file in the target directory, then rename over the live name.
func (st *DirStore) Save(env Envelope) error {
	if err := os.MkdirAll(st.dir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(env)
	if err != nil {
		return err
	}
	f, err := os.CreateTemp(st.dir, tmpPrefix+env.ID+"-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	_, werr := f.Write(data)
	if werr == nil {
		werr = f.Sync()
	}
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr == nil {
		werr = os.Chmod(tmp, 0o644)
	}
	if werr == nil {
		werr = os.Rename(tmp, st.pathFor(env.ID))
	}
	if werr != nil {
		os.Remove(tmp)
		return werr
	}
	return nil
}

// Load reads every "*.session.json" envelope in name order. Stale temp
// files from a crashed Save are swept; envelopes that fail to parse (or
// are not named after their session id) are renamed aside with
// Quarantine semantics and reported, not returned as errors — one bad
// file must not hold every alphabetically-later session hostage.
func (st *DirStore) Load() ([]Envelope, []Quarantined, error) {
	entries, err := os.ReadDir(st.dir)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil, nil
	}
	if err != nil {
		return nil, nil, err
	}
	var names []string
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if strings.HasPrefix(e.Name(), tmpPrefix) {
			os.Remove(filepath.Join(st.dir, e.Name()))
			continue
		}
		if strings.HasSuffix(e.Name(), envelopeSuffix) {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	var envs []Envelope
	var quarantined []Quarantined
	for _, name := range names {
		path := filepath.Join(st.dir, name)
		quarantine := func(reason error) {
			dst := path + corruptSuffix
			if rerr := os.Rename(path, dst); rerr != nil {
				reason = errors.Join(reason, rerr)
				dst = path
			}
			quarantined = append(quarantined, Quarantined{ID: name, Path: dst, Err: reason})
		}
		data, err := os.ReadFile(path)
		if err != nil {
			quarantine(err)
			continue
		}
		var env Envelope
		if err := json.Unmarshal(data, &env); err != nil {
			quarantine(fmt.Errorf("daemon: envelope %s: %w", name, err))
			continue
		}
		// The file name is the id Save, Delete and Quarantine address: an
		// envelope under another name would boot a session whose next flush
		// lands beside it, and the stale file would win the boot after.
		if env.ID == "" || env.ID+envelopeSuffix != name {
			quarantine(fmt.Errorf("daemon: envelope %s holds session id %q", name, env.ID))
			continue
		}
		envs = append(envs, env)
	}
	return envs, quarantined, nil
}

// Delete removes the envelope for id; an absent envelope is fine.
func (st *DirStore) Delete(id string) error {
	if err := os.Remove(st.pathFor(id)); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return err
	}
	return nil
}

// Quarantine renames the envelope for id to "<name>.corrupt".
func (st *DirStore) Quarantine(id string) error {
	path := st.pathFor(id)
	if err := os.Rename(path, path+corruptSuffix); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return err
	}
	return nil
}

// Flusher periodically flushes dirty sessions to a store in the
// background, so a crash between graceful shutdowns loses at most one
// flush interval of progress per session instead of everything since
// boot. Stop halts the ticker without a final write — the shutdown path
// flushes every session itself.
type Flusher struct {
	mgr      *Manager
	store    CheckpointStore
	interval time.Duration
	logf     func(format string, args ...any)
	stop     chan struct{}
	done     chan struct{}
	flushed  atomic.Int64
}

// StartFlusher begins flushing mgr's dirty sessions into store every
// interval. logf (optional) receives flush errors; a flush error never
// stops the flusher — the failed sessions stay dirty and are retried
// next tick.
func StartFlusher(mgr *Manager, store CheckpointStore, interval time.Duration, logf func(format string, args ...any)) *Flusher {
	f := &Flusher{
		mgr:      mgr,
		store:    store,
		interval: interval,
		logf:     logf,
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	go f.run()
	return f
}

func (f *Flusher) run() {
	defer close(f.done)
	t := time.NewTicker(f.interval)
	defer t.Stop()
	for {
		select {
		case <-f.stop:
			return
		case <-t.C:
			ids, err := f.mgr.FlushTo(f.store, true)
			f.flushed.Add(int64(len(ids)))
			if err != nil && f.logf != nil {
				f.logf("background flush: %v", err)
			}
		}
	}
}

// Stop halts the periodic flush and waits for an in-progress pass to
// finish. It does not flush: callers wanting a final complete snapshot
// call Manager.FlushTo afterwards.
func (f *Flusher) Stop() {
	close(f.stop)
	<-f.done
}
