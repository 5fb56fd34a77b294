// Package fsystest records and fails file-system operations and computes
// crash states from what it recorded: for the length of one test it puts
// a file system under the durable layers (fsys.OS) that records every
// operation, fails those a rule picks, and keeps a model of what each did
// — each file's bytes as written and as of its last fsync, each
// directory's entries as made and as of its last fsync. After the run,
// States builds at any operation boundary the state kill -9 leaves (every
// effect before it), the state power loss leaves (only what was fsynced)
// and seeded torn states between the two, as ALICE and CrashMonkey
// compute crash states from a trace. Nothing is copied while the
// workload runs.
package fsystest

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"
	"io/fs"
	"maps"
	"math/rand/v2"
	"os"
	"path"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"hpclog/internal/fsys"
)

// Op is one operation: open, create, openfile, remove, rename (of the old
// path), mkdir, write, truncate, sync (of a file) or syncdir.
type Op struct{ Kind, Path string }

// FS records every operation on the file system it wraps and fails those
// its rule picks. A failed write is short, as on a full disk: half lands.
type FS struct {
	fsys.FS
	// mu guards the trace and the model. An operation holds it to look
	// its paths up before it runs and to append itself once it has run,
	// never while it runs.
	mu    sync.Mutex
	steps []step
	rule  func(Op) error
	// base is the state before the trace: what the operations found on
	// disk, durable as found. root is the namespace as the trace left it.
	base  []event
	root  *node
	nodes int
}

// step is one recorded operation and its effects on the model.
type step struct {
	Op
	evs []event
}

// node is a file or directory of the model's namespace.
type node struct {
	id   int
	kids map[string]*node // nil for a file
	// disk is the path of a directory found on disk, whose names are
	// loaded as an operation first looks them up (looked); "" for one an
	// operation made, which holds only what operations put there.
	disk   string
	looked map[string]bool
}

// Install makes a recording FS fsys.OS until the test ends. Call it before
// the store under test opens.
func Install(t testing.TB) *FS {
	r := &FS{FS: fsys.OS}
	r.root = r.found(true, string(filepath.Separator), nil)
	fsys.OS = r
	t.Cleanup(func() { fsys.OS = r.FS })
	return r
}

// Fail fails each later operation rule returns an error for (nil: none).
// The rule runs before its operation and outside any lock, so it may
// block or call Fail; operations on several goroutines call it
// concurrently.
func (r *FS) Fail(rule func(Op) error) { r.mu.Lock(); r.rule = rule; r.mu.Unlock() }

// Ops returns the operations recorded so far in the order they took
// effect: boundary i of States falls after the first i. A sync counts
// from when it began, every other operation from when it ended.
func (r *FS) Ops() []Op {
	r.mu.Lock()
	defer r.mu.Unlock()
	ops := make([]Op, len(r.steps))
	for i, s := range r.steps {
		ops[i] = s.Op
	}
	return ops
}

// Count returns how many operations of kind were recorded on paths whose
// base name matches glob.
func (r *FS) Count(kind, glob string) (n int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, s := range r.steps {
		if ok, _ := filepath.Match(glob, filepath.Base(s.Path)); ok && s.Kind == kind {
			n++
		}
	}
	return n
}

// CopyTree copies the directory src into dst, past the recording FS.
func CopyTree(t testing.TB, src, dst string) {
	t.Helper()
	if err := os.CopyFS(dst, os.DirFS(src)); err != nil {
		t.Fatal(err)
	}
}

// CommitStage returns the stage the commit (fsys.Commit) of the temp
// file tmp has reached when op begins, if op is the step that ends it:
// "written" at the file's fsync, "synced" at its rename and "renamed" at
// the fsync of its directory; else "". A state at op's boundary shows the
// stage. The directory's fsync may be another commit's: the caller takes
// it only once the rename has passed.
func CommitStage(op Op, tmp string) string {
	switch {
	case op.Kind == "sync" && op.Path == tmp:
		return "written"
	case op.Kind == "rename" && op.Path == tmp:
		return "synced"
	case op.Kind == "syncdir" && op.Path == filepath.Dir(tmp):
		return "renamed"
	}
	return ""
}

// fail returns the error the rule fails op with.
func (r *FS) fail(op Op) error {
	r.mu.Lock()
	rule := r.rule
	r.mu.Unlock()
	if rule == nil {
		return nil
	}
	return rule(op)
}

func (r *FS) appendStep(op Op, evs ...event) {
	r.mu.Lock()
	r.steps = append(r.steps, step{op, evs})
	r.mu.Unlock()
}

// do runs one operation on paths unless the rule fails it, and records
// it with the effects apply returns, under the lock, once it has run.
func (r *FS) do(op Op, run func() error, apply func() []event, paths ...string) error {
	err := r.fail(op)
	if err == nil {
		r.mu.Lock()
		for _, p := range paths {
			r.find(p, true)
		}
		r.mu.Unlock()
		err = run()
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var evs []event
	if err == nil {
		evs = apply()
	}
	r.steps = append(r.steps, step{op, evs})
	return err
}

func (r *FS) Open(name string) (fsys.File, error) { return r.open("open", name, os.O_RDONLY, 0) }
func (r *FS) Create(name string) (fsys.File, error) {
	return r.open("create", name, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o666)
}
func (r *FS) OpenFile(name string, flag int, perm fs.FileMode) (fsys.File, error) {
	return r.open("openfile", name, flag, perm)
}

func (r *FS) open(kind, name string, flag int, perm fs.FileMode) (fsys.File, error) {
	var f fsys.File
	var n *node
	err := r.do(Op{kind, name}, func() (err error) {
		f, err = r.FS.OpenFile(name, flag, perm)
		return err
	}, func() []event {
		dir, found := r.find(name, false)
		if n = found; n == nil {
			n = r.made(false)
			return []event{{kind: evFile, node: n.id}, r.link(dir, filepath.Base(name), n)}
		}
		if flag&os.O_TRUNC != 0 && n.kids == nil {
			return []event{{kind: evTrunc, node: n.id}}
		}
		return nil
	}, name)
	if err != nil {
		return nil, err
	}
	return &file{File: f, r: r, path: name, node: n}, nil
}

func (r *FS) Remove(name string) error {
	return r.do(Op{"remove", name}, func() error { return r.FS.Remove(name) }, func() []event {
		dir, _ := r.find(name, false)
		return []event{r.unlink(dir, filepath.Base(name))}
	}, name)
}

func (r *FS) Rename(from, to string) error {
	return r.do(Op{"rename", from}, func() error { return r.FS.Rename(from, to) }, func() []event {
		dir, n := r.find(from, false)
		dir2, _ := r.find(to, false)
		e := r.unlink(dir, filepath.Base(from))
		e.kind, e.node, e.dir2, e.name2 = evMove, n.id, dir2.id, filepath.Base(to)
		r.link(dir2, e.name2, n)
		return []event{e}
	}, from, to)
}

// MkdirAll records one mkdir, which makes every level of path it lacks.
func (r *FS) MkdirAll(name string, perm fs.FileMode) error {
	return r.do(Op{"mkdir", name}, func() error { return r.FS.MkdirAll(name, perm) }, func() (evs []event) {
		d := r.root
		for _, name := range split(name) {
			kid := d.kids[name]
			if kid == nil {
				kid = r.made(true)
				evs = append(evs, event{kind: evDir, node: kid.id}, r.link(d, name, kid))
			}
			if d = kid; d.kids == nil {
				return evs
			}
		}
		return evs
	}, name)
}

type file struct {
	fsys.File
	r    *FS
	path string
	node *node
}

func (f *file) Write(p []byte) (int, error) { return f.write(p, -1, f.File.Write) }
func (f *file) WriteAt(p []byte, off int64) (int, error) {
	return f.write(p, off, func(b []byte) (int, error) { return f.File.WriteAt(b, off) })
}

// write writes p at off, or at the file's offset when off < 0.
func (f *file) write(p []byte, off int64, w func([]byte) (int, error)) (int, error) {
	op := Op{"write", f.path}
	err := f.r.fail(op)
	if err != nil {
		p = p[:len(p)/2]
	}
	if off < 0 {
		off, _ = f.File.Seek(0, io.SeekCurrent) // reads the offset; it cannot fail on an open file
	}
	n, werr := w(p)
	if err == nil {
		err = werr
	}
	f.r.appendStep(op, event{kind: evWrite, node: f.node.id, off: off, data: bytes.Clone(p[:n])})
	return n, err
}

func (f *file) Truncate(size int64) error {
	return f.r.do(Op{"truncate", f.path}, func() error { return f.File.Truncate(size) }, func() []event {
		return []event{{kind: evTrunc, node: f.node.id, off: size}}
	})
}

// Sync is recorded before it runs: it covers only the writes that ended
// before it began, through this descriptor or any other.
func (f *file) Sync() error {
	op, kind := Op{"sync", f.path}, evSync
	if f.node.kids != nil {
		op.Kind, kind = "syncdir", evSyncDir
	}
	if err := f.r.fail(op); err != nil {
		f.r.appendStep(op)
		return err
	}
	f.r.appendStep(op, event{kind: kind, node: f.node.id})
	return f.File.Sync()
}

// The model. Every path is absolute once split.

func split(path string) []string {
	abs, err := filepath.Abs(path)
	if err != nil || abs == string(filepath.Separator) {
		return nil
	}
	return strings.Split(abs[1:], string(filepath.Separator))
}

// find returns the node at path and the directory that holds or would
// hold it; nil where the path names nothing. With load it first loads
// each name on the way that no operation has looked up in a directory
// found on disk.
func (r *FS) find(path string, load bool) (dir, n *node) {
	n = r.root
	for _, name := range split(path) {
		if n == nil || n.kids == nil {
			return nil, nil
		}
		if dir = n; load {
			r.load(dir, name)
		}
		n = dir.kids[name]
	}
	return dir, n
}

// load adds name of the found directory d to the state before the trace
// as it is on disk, unless an operation looked it up before: no operation
// touched it yet, so it is as it was.
func (r *FS) load(d *node, name string) {
	if d.disk == "" || d.looked[name] {
		return
	}
	d.looked[name] = true
	path := filepath.Join(d.disk, name)
	st, err := os.Stat(path)
	if err != nil {
		return
	}
	var data []byte
	if !st.IsDir() {
		if data, err = os.ReadFile(path); err != nil {
			return
		}
	}
	n := r.found(st.IsDir(), path, data)
	r.base = append(r.base, event{kind: evLink, node: n.id, dir: d.id, name: name})
	d.kids[name] = n
}

// found adds a node found on disk to the state before the trace.
func (r *FS) found(dir bool, path string, data []byte) *node {
	n := r.made(dir)
	if dir {
		n.disk, n.looked = path, make(map[string]bool)
		r.base = append(r.base, event{kind: evDir, node: n.id})
	} else { // clipped: a replay's appends must not share its array
		r.base = append(r.base, event{kind: evFile, node: n.id, data: slices.Clip(data)})
	}
	return n
}

// made returns a new node.
func (r *FS) made(dir bool) *node {
	n := &node{id: r.nodes}
	r.nodes++
	if dir {
		n.kids = make(map[string]*node)
	}
	return n
}

func (r *FS) link(d *node, name string, n *node) event {
	d.kids[name] = n
	if d.looked != nil {
		d.looked[name] = true
	}
	return event{kind: evLink, node: n.id, dir: d.id, name: name}
}

func (r *FS) unlink(d *node, name string) event {
	delete(d.kids, name)
	if d.looked != nil {
		d.looked[name] = true
	}
	return event{kind: evUnlink, dir: d.id, name: name}
}

// loadTree loads every name under path no operation looked up.
func (r *FS) loadTree(path string) {
	_, n := r.find(path, true)
	r.loadDir(n)
}

func (r *FS) loadDir(d *node) {
	if d == nil || d.kids == nil {
		return
	}
	if d.disk != "" {
		entries, _ := os.ReadDir(d.disk)
		for _, e := range entries {
			r.load(d, e.Name())
		}
	}
	for _, kid := range d.kids {
		r.loadDir(kid)
	}
}

// event is one effect of an operation on the model.
type event struct {
	kind        evKind
	node        int // the file or directory made, linked, written or synced
	dir, dir2   int // link, unlink, move: the directory, and a move's target
	name, name2 string
	off         int64 // write: the offset; truncate: the size
	data        []byte
}

type evKind uint8

const (
	evFile    evKind = iota // a file holding data
	evDir                   // a directory
	evLink                  // dir's name names node
	evUnlink                // dir's name goes
	evMove                  // node moves from dir's name to dir2's name2
	evWrite                 // data lands at off of node
	evTrunc                 // node is cut or grown to off bytes
	evSync                  // node's bytes are durable
	evSyncDir               // node's entries are durable
)

// view is a crash state in the making: each directory's entries and each
// file's bytes, by node.
type view struct {
	kids map[int]map[string]int
	data map[int][]byte
}

// replay returns the kill -9 and the power-loss view of the state before
// the trace, durable as found, after evs. A sync makes the power-loss
// view share the kill -9 view's bytes until a write changes them.
func replay(base, evs []event) (kill, power view) {
	kill = view{make(map[int]map[string]int), make(map[int][]byte)}
	power = view{make(map[int]map[string]int), make(map[int][]byte)}
	for _, e := range base {
		kill.apply(e, false)
		power.apply(e, false)
	}
	for _, e := range evs {
		switch e.kind {
		case evFile, evDir:
			kill.apply(e, false)
			power.apply(e, false)
		case evSync:
			power.data[e.node] = kill.data[e.node]
		case evSyncDir:
			power.kids[e.node] = maps.Clone(kill.kids[e.node])
		default:
			d, p := kill.data[e.node], power.data[e.node]
			kill.apply(e, int(e.off) < len(p) && len(d) > 0 && &d[0] == &p[0])
		}
	}
	return kill, power
}

// apply applies e to v. With cow it first copies the entries or bytes e
// changes: another view shares them.
func (v view) apply(e event, cow bool) {
	switch e.kind {
	case evFile:
		v.data[e.node] = e.data
	case evDir:
		v.kids[e.node] = make(map[string]int)
	case evWrite, evTrunc:
		d := v.data[e.node]
		if cow {
			d = slices.Clone(d)
		}
		if e.kind == evWrite {
			v.data[e.node] = writeAt(d, e.off, e.data)
		} else {
			v.data[e.node] = truncate(d, e.off)
		}
	case evLink:
		v.link(e.dir, e.name, e.node, cow)
	case evUnlink:
		v.link(e.dir, e.name, -1, cow)
	case evMove:
		v.link(e.dir, e.name, -1, cow)
		v.link(e.dir2, e.name2, e.node, cow)
	}
}

// link makes name in directory dir name node, or nothing if node < 0.
func (v view) link(dir int, name string, node int, cow bool) {
	kids := v.kids[dir]
	if cow {
		kids = maps.Clone(kids)
		v.kids[dir] = kids
	}
	if node < 0 {
		delete(kids, name)
	} else {
		kids[name] = node
	}
}

func writeAt(data []byte, off int64, p []byte) []byte {
	if end := int(off) + len(p); end > len(data) {
		data = append(data, make([]byte, end-len(data))...)
	}
	copy(data[off:], p)
	return data
}

func truncate(data []byte, size int64) []byte {
	if int(size) <= len(data) {
		return data[:size]
	}
	return append(data, make([]byte, int(size)-len(data))...)
}

// pending returns the events of evs no later fsync made durable, in order:
// a write or truncate not followed by a sync of its file, a link or unlink
// not followed by a sync of its directory, a move not followed by syncs
// of both.
func pending(evs []event) []event {
	synced := make(map[int]bool)
	var out []event
	for i := len(evs) - 1; i >= 0; i-- {
		e := evs[i]
		switch e.kind {
		case evSync, evSyncDir:
			synced[e.node] = true
		case evWrite, evTrunc:
			if !synced[e.node] {
				out = append(out, e)
			}
		case evLink, evUnlink:
			if !synced[e.dir] {
				out = append(out, e)
			}
		case evMove:
			if !synced[e.dir] || !synced[e.dir2] {
				out = append(out, e)
			}
		}
	}
	slices.Reverse(out)
	return out
}

// The kinds of crash state.
const (
	Kill  = "kill"  // kill -9: every effect before the boundary
	Power = "power" // power loss: only fsynced bytes and entries
	Torn  = "torn"  // power loss after some of the unsynced effects
)

// State is a crash state of the directories States was asked for.
type State struct {
	Kind string
	At   int // the boundary: the crash came after this many operations
	// Digest hashes the path and bytes of every file of the state: two
	// states of one digest recover alike.
	Digest [sha256.Size]byte
	trees  [][]entry
}

// Distinct returns the first state of each digest in states, in order:
// states of one digest recover alike.
func Distinct(states []State) []State {
	seen := make(map[[sha256.Size]byte]bool)
	var out []State
	for _, s := range states {
		if !seen[s.Digest] {
			seen[s.Digest] = true
			out = append(out, s)
		}
	}
	return out
}

// entry is a file or directory of a state, by its path in its tree.
type entry struct {
	rel  string
	dir  bool
	data []byte
}

// States returns the crash states of dirs at boundary i, after the run:
// the kill -9 state, the power-loss state, then up to n torn states. Torn
// state k adds to the power-loss state a prefix, in order, of the
// effects no fsync had made durable by i, the last of them, if a write,
// cut to a prefix of its bytes; i and k seed the cuts. Files no operation
// touched count as durable, as they are on disk now.
func (r *FS) States(i, n int, dirs ...string) []State {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, d := range dirs {
		r.loadTree(d)
	}
	var evs []event
	for _, s := range r.steps[:i] {
		evs = append(evs, s.evs...)
	}
	kill, power := replay(r.base, evs)
	states := []State{kill.state(Kill, i, r.root.id, dirs), power.state(Power, i, r.root.id, dirs)}
	unsynced := pending(evs)
	for k := 0; k < n && len(unsynced) > 0; k++ {
		rng := rand.New(rand.NewPCG(uint64(i), uint64(k)))
		torn := view{maps.Clone(power.kids), maps.Clone(power.data)}
		m := 1 + rng.IntN(len(unsynced))
		for j, e := range unsynced[:m] {
			if j == m-1 && e.kind == evWrite {
				e.data = e.data[:rng.IntN(len(e.data)+1)]
			}
			torn.apply(e, true)
		}
		states = append(states, torn.state(Torn, i, r.root.id, dirs))
	}
	return states
}

// state returns the trees of v under dirs as a state.
func (v view) state(kind string, at, root int, dirs []string) State {
	s := State{Kind: kind, At: at}
	h := sha256.New()
	for i, d := range dirs {
		id, ok := root, true
		for _, name := range split(d) {
			if id, ok = v.kids[id][name]; !ok {
				break
			}
		}
		var tree []entry
		if _, dir := v.kids[id]; ok && dir {
			tree = v.walk(id, "", nil)
		}
		for _, e := range tree {
			if !e.dir {
				fmt.Fprintf(h, "%d/%s %d\n", i, e.rel, len(e.data))
				h.Write(e.data)
			}
		}
		s.trees = append(s.trees, tree)
	}
	s.Digest = [sha256.Size]byte(h.Sum(nil))
	return s
}

// walk appends the entries under directory id, in lexical order.
func (v view) walk(id int, rel string, out []entry) []entry {
	kids := v.kids[id]
	for _, name := range slices.Sorted(maps.Keys(kids)) {
		kid, p := kids[name], path.Join(rel, name)
		if _, dir := v.kids[kid]; dir {
			out = v.walk(kid, p, append(out, entry{rel: p, dir: true}))
		} else {
			out = append(out, entry{rel: p, data: v.data[kid]})
		}
	}
	return out
}

// Write writes the state's copy of each directory under a fresh
// directory of t, past the recording FS, and returns them in order.
func (s State) Write(t testing.TB) []string {
	t.Helper()
	dirs := make([]string, len(s.trees))
	for i, tree := range s.trees {
		dirs[i] = t.TempDir()
		for _, e := range tree {
			p := filepath.Join(dirs[i], filepath.FromSlash(e.rel))
			var err error
			if e.dir {
				err = os.Mkdir(p, 0o755)
			} else {
				err = os.WriteFile(p, e.data, 0o644)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	return dirs
}
