package hier

import "fmt"

// Cond names a decline condition — the reason a hierarchical run could
// not be served from certificates.
type Cond string

// The decline conditions.
const (
	// CondNotComposition: the top cell is not a composition; the flat
	// path is the only path.
	CondNotComposition Cond = "not-composition"
	// CondCertBuild: a distinct cell failed to flatten or extract into
	// a certificate.
	CondCertBuild Cond = "cert-build"
	// CondPend: a certificate has device terminals that need flat
	// context (a terminal probe finds none of the cell's own material).
	CondPend Cond = "pend"
	// CondPoison: a pair template found cross-placement gate/diffusion
	// overlap, which changes fragmentation itself.
	CondPoison Cond = "poison"
	// CondComposeBudget: the composition gave up before pairing
	// placements, forced by the compose-budget fault point.
	CondComposeBudget Cond = "compose-budget"
	// CondError wraps a decline that carries only an underlying error.
	CondError Cond = "error"
)

// Decline is a structured decline record: which condition fired, and
// where. It implements error so existing call sites keep printing it,
// but -stats and tests can read the fields instead of parsing text.
type Decline struct {
	// Cond is the decline condition.
	Cond Cond
	// Cell names the distinct cell involved, when one is ("" otherwise).
	Cell string
	// Placement is the leaf occurrence index in flatten walk order, or
	// -1 when the decline is not tied to one placement.
	Placement int
	// Err is the underlying error, when any.
	Err error
}

func (d *Decline) Error() string {
	s := "hier: declined (" + string(d.Cond) + ")"
	if d.Cell != "" {
		s += " cell " + d.Cell
	}
	if d.Placement >= 0 {
		s += fmt.Sprintf(" placement %d", d.Placement)
	}
	if d.Err != nil {
		s += ": " + d.Err.Error()
	}
	return s
}

// Unwrap exposes the underlying error to errors.Is/As.
func (d *Decline) Unwrap() error { return d.Err }

// declineOf normalizes any error into a structured decline record.
func declineOf(err error) *Decline {
	if d, ok := err.(*Decline); ok {
		return d
	}
	return &Decline{Cond: CondError, Placement: -1, Err: err}
}
