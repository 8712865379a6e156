// Package serve is the multi-tenant design service: many editing
// sessions multiplexed over shared designs and one shared
// content-addressed verification store.
//
// The paper's tool is single-designer — one keyboard, one design. A
// chip is assembled by a team, though, and the expensive artifact of
// verification (the hierarchical engine's per-cell extract+DRC
// certificate) depends only on cell content, not on who verifies
// first. The server exploits both facts:
//
//   - Each session is a full shell (its own editor, verifier caches,
//     journal, in-memory file system) over a design shared by name.
//     Mutating commands hold the design's guard exclusively; verifying
//     commands freeze a snapshot under a brief read lock and verify
//     against the immutable frozen generation, so one session's long
//     DRC never blocks another's edits — and the verdict each session
//     sees is deterministic per generation.
//   - Every session's verifier attaches the same castore.Mem
//     (optionally tiered over one on-disk castore.Store) through one
//     shared revision-checked Signer: the first session to verify a
//     cell warms every other, and a new session joining mid-flight
//     starts warm. LVS memos stay per session: each session derives
//     its leaves' LVS entries in process.
//
// Cell-level write conflicts resolve by lease: EDIT claims the cell
// for the session and a second session's EDIT of the same cell is
// refused until the first ends its edit.
//
// Serve speaks a line protocol over any reader/writer (cmd/riot wires
// stdin for riot -serve); the Open/Do/Close methods are the same
// surface programmatically, safe for concurrent use.
package serve

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"io/fs"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing/fstest"

	"riot/internal/castore"
	"riot/internal/core"
	"riot/internal/lib"
	"riot/internal/obs"
	"riot/internal/shell"
)

// Options configures a server.
type Options struct {
	// CacheDir, when set, tiers the shared in-memory store over a
	// persistent on-disk store rooted there, so the server also starts
	// warm across restarts.
	CacheDir string
	// Log receives the on-disk store's quarantine lines; nil discards.
	Log func(format string, args ...any)
}

// Server multiplexes sessions over shared designs and the shared
// verification store. Safe for concurrent use.
type Server struct {
	mu       sync.Mutex
	designs  map[string]*sharedDesign
	sessions map[string]*session

	mem    *castore.Mem
	disk   *castore.Store
	blob   castore.Blob
	signer *castore.Signer
	sem    chan struct{}

	opened, closed, commands int
}

// sharedDesign is one design many sessions edit and verify. The guard
// is the sessions' shell.Guard; the lease map (under Server.mu) keeps
// two sessions from editing one cell at once.
type sharedDesign struct {
	name    string
	d       *core.Design
	guard   sync.RWMutex
	editing map[string]string // cell name -> session id
}

// session is one tenant: a shell over the shared design, with private
// files, caches and output buffer.
type session struct {
	id     string
	mu     sync.Mutex
	sh     *shell.Shell
	design *sharedDesign
	out    bytes.Buffer
	files  map[string][]byte
}

// New starts a server. The standard cell library is pre-installed in
// every design, and each session's file system is pre-loaded with the
// library files, so sessions can READ or CREATE from either surface.
func New(opts Options) (*Server, error) {
	sv := &Server{
		designs:  map[string]*sharedDesign{},
		sessions: map[string]*session{},
		mem:      castore.NewMem(),
		signer:   &castore.Signer{},
	}
	sv.blob = sv.mem
	if opts.CacheDir != "" {
		st, err := castore.Open(opts.CacheDir)
		if err != nil {
			return nil, err
		}
		if opts.Log != nil {
			st.Log = opts.Log
		} else {
			st.Log = func(string, ...any) {}
		}
		sv.disk = st
		sv.blob = &castore.Tiered{Mem: sv.mem, Disk: st}
	}
	// at most 2×GOMAXPROCS commands execute at once across all sessions
	sv.sem = make(chan struct{}, 2*runtime.GOMAXPROCS(0))
	return sv, nil
}

// design returns (creating if needed) the named shared design.
func (sv *Server) design(name string) (*sharedDesign, error) {
	if sd, ok := sv.designs[name]; ok {
		return sd, nil
	}
	sd := &sharedDesign{
		name:    name,
		d:       core.NewDesign(),
		editing: map[string]string{},
	}
	if err := lib.Install(sd.d); err != nil {
		return nil, err
	}
	sv.designs[name] = sd
	return sd, nil
}

// Open starts a session on the named shared design ("main" when empty).
func (sv *Server) Open(sid, designName string) error {
	if sid == "" {
		return fmt.Errorf("serve: empty session id")
	}
	if designName == "" {
		designName = "main"
	}
	libFiles, err := lib.Files()
	if err != nil {
		return err
	}
	sv.mu.Lock()
	defer sv.mu.Unlock()
	if _, ok := sv.sessions[sid]; ok {
		return fmt.Errorf("serve: session %q already open", sid)
	}
	sd, err := sv.design(designName)
	if err != nil {
		return err
	}
	s := &session{id: sid, design: sd, files: libFiles}
	sh := shell.New(&s.out)
	sh.Design = sd.d
	sh.Guard = &sd.guard
	sh.FS = sessionFS{s}
	sh.WriteFile = func(name string, data []byte) error {
		s.files[name] = data
		return nil
	}
	sh.ReplayExec = func(line string) error { return sv.exec(s, line) }
	sh.AttachStore(sv.blob, sv.signer)
	sv.registerStoreSection(sh)
	s.sh = sh
	sv.sessions[sid] = s
	sv.opened++
	return nil
}

// registerStoreSection adds the shared store's counters to a session
// registry, so STATS inside any session (and the smoke tests outside)
// can see the cross-session warming.
func (sv *Server) registerStoreSection(sh *shell.Shell) {
	sh.Registry().Register("store", sv.storeItems)
}

// storeItems reports the shared store's counters: the in-memory
// store's, then the disk floor's when there is one.
func (sv *Server) storeItems() []obs.Item {
	ms := sv.mem.Stats()
	items := []obs.Item{
		obs.N("hits", ms.Hits),
		obs.N("misses", ms.Misses),
		obs.N("puts", ms.Puts),
		obs.N("entries", ms.Entries),
		obs.N("bytes", ms.Bytes),
	}
	if sv.disk != nil {
		ds := sv.disk.Stats()
		items = append(items,
			obs.N("disk_hits", ds.Hits),
			obs.N("disk_misses", ds.Misses),
			obs.N("disk_puts", ds.Puts),
		)
	}
	return items
}

// sessionFS resolves a session's READ/REPLAY names against its private
// files (library files plus anything the session wrote).
type sessionFS struct{ s *session }

func (m sessionFS) Open(name string) (fs.File, error) {
	if data, ok := m.s.files[name]; ok {
		return fstest.MapFS{name: &fstest.MapFile{Data: data}}.Open(name)
	}
	return nil, fmt.Errorf("open %s: %w", name, fs.ErrNotExist)
}

// Close ends a session, releasing its cell leases. The warm state it
// contributed to the shared store stays.
func (sv *Server) Close(sid string) error {
	sv.mu.Lock()
	defer sv.mu.Unlock()
	s, ok := sv.sessions[sid]
	if !ok {
		return fmt.Errorf("serve: no session %q", sid)
	}
	for cell, owner := range s.design.editing {
		if owner == sid {
			delete(s.design.editing, cell)
		}
	}
	delete(sv.sessions, sid)
	sv.closed++
	return nil
}

// Shell exposes a session's shell for programmatic drivers (tests, the
// benchmark). The caller must not run commands on it concurrently with
// Do for the same session.
func (sv *Server) Shell(sid string) (*shell.Shell, bool) {
	sv.mu.Lock()
	defer sv.mu.Unlock()
	s, ok := sv.sessions[sid]
	if !ok {
		return nil, false
	}
	return s.sh, true
}

// Do executes one shell command in a session and returns its printed
// output. Commands for one session serialize; commands across sessions
// run concurrently up to the server's bound. Every line, and every
// line a REPLAY re-runs, passes the session's lease rules (exec).
func (sv *Server) Do(sid, line string) (string, error) {
	sv.mu.Lock()
	s, ok := sv.sessions[sid]
	if ok {
		sv.commands++
	}
	sv.mu.Unlock()
	if !ok {
		return "", fmt.Errorf("serve: no session %q", sid)
	}
	s.mu.Lock()
	defer s.mu.Unlock()

	sv.sem <- struct{}{}
	err := sv.exec(s, line)
	<-sv.sem

	out := s.out.String()
	s.out.Reset()
	return out, err
}

// exec runs one line under the session's lease rules, its caller
// holding the session lock and a semaphore slot: EDIT claims the
// cell's lease and is refused while another session holds it; so are
// DELCELL and RENAME of that cell, which would leave the holder editing
// a cell gone or renamed. The lease map then follows the editor.
func (sv *Server) exec(s *session, line string) error {
	if fields := strings.Fields(line); len(fields) >= 2 {
		switch verb := strings.ToUpper(fields[0]); verb {
		case "EDIT", "DELCELL", "RENAME":
			if err := sv.claim(s, fields[1], verb == "EDIT"); err != nil {
				return err
			}
		}
	}
	err := s.sh.Exec(line)
	sv.reconcileLeases(s)
	return err
}

// claim refuses a command on a cell another session holds; with edit
// it also reserves the cell for the session's editor.
func (sv *Server) claim(s *session, cell string, edit bool) error {
	sv.mu.Lock()
	defer sv.mu.Unlock()
	if owner, held := s.design.editing[cell]; held && owner != s.id {
		return fmt.Errorf("serve: cell %q is under edit by session %q", cell, owner)
	}
	if edit {
		s.design.editing[cell] = s.id
	}
	return nil
}

// reconcileLeases aligns the design's lease map with what the session's
// editor actually holds: a failed EDIT, an ENDEDIT, a DELCELL or a
// RENAME of the cell under edit all settle here.
func (sv *Server) reconcileLeases(s *session) {
	sv.mu.Lock()
	defer sv.mu.Unlock()
	var current string
	if ed := s.sh.Editor; ed != nil {
		current = ed.Cell.Name
	}
	for cell, owner := range s.design.editing {
		if owner == s.id && cell != current {
			delete(s.design.editing, cell)
		}
	}
	if current != "" {
		s.design.editing[current] = s.id
	}
}

// SessionSnapshot pulls one session's unified stats (the shell's usual
// sections plus the shared "store" section).
func (sv *Server) SessionSnapshot(sid string) (*obs.Snapshot, bool) {
	sh, ok := sv.Shell(sid)
	if !ok {
		return nil, false
	}
	return sh.Snapshot(), true
}

// Snapshot aggregates the server's stats: a "serve" section (session
// and command counts), the shared "store" section, and every numeric
// per-session pipeline counter summed across open sessions.
func (sv *Server) Snapshot() *obs.Snapshot {
	sv.mu.Lock()
	serveSec := obs.Section{Name: "serve", Items: []obs.Item{
		obs.N("sessions", len(sv.sessions)),
		obs.N("opened", sv.opened),
		obs.N("closed", sv.closed),
		obs.N("commands", sv.commands),
		obs.N("designs", len(sv.designs)),
	}}
	open := make([]*session, 0, len(sv.sessions))
	for _, s := range sv.sessions {
		open = append(open, s)
	}
	sv.mu.Unlock()
	sort.Slice(open, func(i, j int) bool { return open[i].id < open[j].id })

	snap := &obs.Snapshot{Sections: []obs.Section{serveSec, {Name: "store", Items: sv.storeItems()}}}

	// Sum the numeric pipeline counters across sessions, keeping first
	// appearance order of sections and keys so the aggregate's shape is
	// deterministic. The per-session "store" section is the shared store
	// seen from inside — skip it, it is already reported once above.
	var order []string
	keys := map[string][]string{}
	sums := map[string]map[string]int64{}
	for _, s := range open {
		s.mu.Lock()
		ss := s.sh.Snapshot()
		s.mu.Unlock()
		for _, sec := range ss.Sections {
			if sec.Name == "store" {
				continue
			}
			if _, ok := sums[sec.Name]; !ok {
				order = append(order, sec.Name)
				sums[sec.Name] = map[string]int64{}
			}
			for _, it := range sec.Items {
				if it.IsStr {
					continue
				}
				if _, ok := sums[sec.Name][it.Key]; !ok {
					keys[sec.Name] = append(keys[sec.Name], it.Key)
				}
				sums[sec.Name][it.Key] += it.Val
			}
		}
	}
	for _, name := range order {
		sec := obs.Section{Name: name}
		for _, k := range keys[name] {
			sec.Items = append(sec.Items, obs.Item{Key: k, Val: sums[name][k]})
		}
		snap.Sections = append(snap.Sections, sec)
	}
	return snap
}

// Sessions lists open sessions deterministically: "id design" plus the
// cell under edit when one is.
func (sv *Server) Sessions() []string {
	sv.mu.Lock()
	defer sv.mu.Unlock()
	out := make([]string, 0, len(sv.sessions))
	for id, s := range sv.sessions {
		line := id + " " + s.design.name
		for cell, owner := range s.design.editing {
			if owner == id {
				line += " editing " + cell
			}
		}
		out = append(out, line)
	}
	sort.Strings(out)
	return out
}

// Serve interprets the server line protocol from r until EOF or QUIT:
//
//	OPEN <sid> [<design>]   start a session on a shared design
//	ON <sid> <command...>   run one shell command in a session
//	CLOSE <sid>             end a session
//	SESSIONS                list open sessions
//	STATS [JSON]            aggregate server statistics
//	QUIT                    stop serving
//
// Errors print as ?-prefixed lines and do not stop the server
// (interactive semantics, like the shell's own Run loop).
func (sv *Server) Serve(r io.Reader, w io.Writer) error {
	sc := newLineScanner(r)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		cmd := strings.ToUpper(fields[0])
		args := fields[1:]
		switch cmd {
		case "QUIT":
			return nil
		case "OPEN":
			if len(args) < 1 || len(args) > 2 {
				fmt.Fprintf(w, "?serve: OPEN <sid> [<design>]\n")
				continue
			}
			design := ""
			if len(args) == 2 {
				design = args[1]
			}
			if err := sv.Open(args[0], design); err != nil {
				fmt.Fprintf(w, "?%v\n", err)
				continue
			}
			fmt.Fprintf(w, "opened %s\n", args[0])
		case "CLOSE":
			if len(args) != 1 {
				fmt.Fprintf(w, "?serve: CLOSE <sid>\n")
				continue
			}
			if err := sv.Close(args[0]); err != nil {
				fmt.Fprintf(w, "?%v\n", err)
				continue
			}
			fmt.Fprintf(w, "closed %s\n", args[0])
		case "ON":
			if len(args) < 2 {
				fmt.Fprintf(w, "?serve: ON <sid> <command...>\n")
				continue
			}
			out, err := sv.Do(args[0], strings.Join(args[1:], " "))
			io.WriteString(w, out)
			if err != nil {
				fmt.Fprintf(w, "?%v\n", err)
			}
		case "SESSIONS":
			for _, s := range sv.Sessions() {
				fmt.Fprintln(w, s)
			}
		case "STATS":
			if len(args) > 0 && strings.EqualFold(args[0], "JSON") {
				fmt.Fprintf(w, "%s\n", sv.Snapshot().JSON())
			} else {
				io.WriteString(w, sv.Snapshot().Text())
			}
		default:
			fmt.Fprintf(w, "?serve: unknown directive %q (OPEN/ON/CLOSE/SESSIONS/STATS/QUIT)\n", cmd)
		}
	}
	return sc.Err()
}

// newLineScanner wraps bufio.Scanner with a bigger buffer, matching the
// shell's own line limits.
func newLineScanner(r io.Reader) *bufio.Scanner {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	return sc
}
