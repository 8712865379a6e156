package main

import (
	"fmt"
	"math/rand"
	"time"

	"riot"
	"riot/internal/lvs"
	"riot/internal/obs"
	"riot/internal/verify"
)

// deck deals outcomes in seeded, shuffled blocks: each block holds
// outcome i exactly weights[i] times, so a run's op mix is exact
// whatever the seed, and the seed only orders it.
type deck struct {
	rng         *rand.Rand
	block, left []int
}

func newDeck(rng *rand.Rand, weights ...int) *deck {
	d := &deck{rng: rng}
	for i, w := range weights {
		for j := 0; j < w; j++ {
			d.block = append(d.block, i)
		}
	}
	return d
}

func (d *deck) deal() int {
	if len(d.left) == 0 {
		d.left = append(d.left, d.block...)
		d.rng.Shuffle(len(d.left), func(i, j int) { d.left[i], d.left[j] = d.left[j], d.left[i] })
	}
	x := d.left[len(d.left)-1]
	d.left = d.left[:len(d.left)-1]
	return x
}

// Edit kinds of the trace, with their share of do/undo pairs.
const (
	editNudge  = iota // 60%: MOVE ci ±1λ, and back
	editPipe          // 15%: MOVE p ±1λ, and back
	editOrient        // 15%: ORIENT ci R180, twice
	editDelete        // 10%: DELETE ci, then CREATE it again in place
)

// editGen is the seeded edit trace over an n×n grid of individually
// placed SRCELLs c0..c(n²-1), abutting at 20x24 lambda, plus the
// metal-only pipe fitting p beside it. Edits come in do/undo pairs, so
// the design stays stationary around the clean grid.
type editGen struct {
	rng   *rand.Rand
	kinds *deck
	n     int
	undo  string // the second half of the pending pair
}

func newEditGen(rng *rand.Rand, n int) *editGen {
	return &editGen{rng: rng, kinds: newDeck(rng, 12, 3, 3, 2), n: n}
}

func (g *editGen) next() string {
	if u := g.undo; u != "" {
		g.undo = ""
		return u
	}
	i := g.rng.Intn(g.n * g.n)
	inst := fmt.Sprintf("c%d", i)
	dx, dy := [4]int{1, -1, 0, 0}[g.rng.Intn(4)], 0
	if dx == 0 {
		dy = [2]int{1, -1}[g.rng.Intn(2)]
	}
	var do string
	switch g.kinds.deal() {
	case editNudge:
		do, g.undo = fmt.Sprintf("MOVE %s %d %d", inst, dx, dy), fmt.Sprintf("MOVE %s %d %d", inst, -dx, -dy)
	case editPipe:
		do, g.undo = fmt.Sprintf("MOVE p %d %d", dx, dy), fmt.Sprintf("MOVE p %d %d", -dx, -dy)
	case editOrient:
		do = fmt.Sprintf("ORIENT %s R180", inst)
		g.undo = do
	case editDelete:
		x, y := i%g.n, i/g.n
		do, g.undo = "DELETE "+inst, fmt.Sprintf("CREATE SRCELL %s AT %d %d", inst, 20*x, 24*y)
	}
	return do
}

// gridScript builds the edit grid in cell top: the commands a designer
// would type, one placement each. The library cells must be loaded.
func gridScript(top string, n int) []string {
	lines := []string{"EDIT " + top}
	for i := 0; i < n*n; i++ {
		lines = append(lines, fmt.Sprintf("CREATE SRCELL c%d AT %d %d", i, 20*(i%n), 24*(i/n)))
	}
	return append(lines, fmt.Sprintf("CREATE PIPEM p AT %d 0", 20*n+20))
}

// runEditLoop is one designer editing a 32x32 grid under one editor:
// each seeded edit is followed by an extract+DRC verdict (80%) or an
// LVS verdict (20%) through riot.Session.
func runEditLoop(r *run) error {
	const top = "CHIP"
	var sess *riot.Session
	err := r.timeSetup(func() error {
		s, err := riot.NewSession(nil)
		if err != nil {
			return err
		}
		script := append([]string{"READ srcell.sticks", "READ pipem.sticks"}, gridScript(top, r.cfg.editN)...)
		if err := s.ExecAll(script...); err != nil {
			return err
		}
		if _, err := s.VerifyCell(top); err != nil {
			return err
		}
		if _, err := s.CheckLVS(top); err != nil {
			return err
		}
		sess = s
		return nil
	})
	if err != nil {
		return err
	}
	ed := sess.Editor()
	gen := newEditGen(r.rng, r.cfg.editN)
	lvsOps := newDeck(r.rng, 4, 1) // extract+DRC 80%, LVS 20%
	// flat is the splice-path reference the traced run replays every
	// generation through: a Verifier with Hier unset.
	var flat verify.Verifier

	start := time.Now()
	for op := 0; r.more(op, start); op++ {
		line := gen.next()
		key := r.w.primary
		if lvsOps.deal() == 1 {
			key = r.w.secondary
		}
		tr := r.traceFor(op)
		var before *obs.Snapshot
		if tr != nil {
			before = sess.Snapshot()
			sess.SetTrace(tr)
		}

		var (
			rep *verify.Report
			res *lvs.Result
		)
		t0 := time.Now()
		sp := tr.Begin(spanEdit)
		err := sess.Exec(line)
		sp.End()
		sp = tr.Begin(spanSnapshot)
		snap := ed.Snapshot()
		sp.End()
		if err == nil {
			if key == r.w.primary {
				rep, err = sess.VerifyCell(top)
			} else {
				res, err = sess.CheckLVS(top)
			}
		}
		d := time.Since(t0)
		if tr != nil {
			sess.SetTrace(nil)
		}

		r.attempted++
		if err != nil {
			r.fail(line, err)
			continue
		}
		r.observe(key, d)
		r.units++
		r.busy += d
		if r.cfg.traced {
			t1 := time.Now()
			if _, err := flat.VerifySnapshot(snap); err != nil {
				return fmt.Errorf("flat splice reference: %w", err)
			}
			if tr != nil {
				r.layers.incl["verify.flat_splice_ms"] += time.Since(t1)
			}
		}
		r.account(key, tr, d, before, sess.Snapshot)
		if op%r.cfg.oracleN == 0 {
			if err := r.check(&verdicts{snap: snap, rep: rep, res: res}); err != nil {
				return err
			}
		}
	}
	return r.markPeak()
}
