package cif

import (
	"bufio"
	"io"
	"strconv"
	"strings"

	"riot/internal/geom"
)

// WriteTo emits f as CIF 2.0 text, streaming symbol by symbol —
// nothing buffers more than one bufio block, so a full-chip mask file
// never materializes in memory. Symbols are written in definition
// order, followed by any top-level elements and the E command. Each
// command is formatted into one reused line buffer (no fmt), so the
// output costs no allocation per element. The output round-trips
// through Parse: parse(write(f)) yields a file with the same symbols,
// names, connectors and geometry. WriteTo implements io.WriterTo.
func (f *File) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	lw := &lineWriter{w: bw}
	lw.str("(CIF 2.0 written by riot)").end()
	for _, s := range f.Symbols {
		writeSymbol(lw, s)
	}
	var layer geom.Layer
	for _, e := range f.TopLevel {
		writeElement(lw, e, &layer)
	}
	lw.str("E\n").flush()
	if lw.err != nil {
		return lw.n, lw.err
	}
	return lw.n, bw.Flush()
}

// Write emits f as CIF 2.0 text to w (see File.WriteTo).
func Write(w io.Writer, f *File) error {
	_, err := f.WriteTo(w)
	return err
}

// String renders the file as CIF text (a buffered WriteTo).
func String(f *File) string {
	var b strings.Builder
	_, _ = f.WriteTo(&b)
	return b.String()
}

// lineWriter formats one command at a time into a reused buffer and
// writes it whole, keeping the byte count and the first error.
type lineWriter struct {
	w   io.Writer
	b   []byte
	n   int64
	err error
}

func (w *lineWriter) str(s string) *lineWriter {
	w.b = append(w.b, s...)
	return w
}

// num appends a space and v in decimal.
func (w *lineWriter) num(v int) *lineWriter {
	w.b = strconv.AppendInt(append(w.b, ' '), int64(v), 10)
	return w
}

func (w *lineWriter) path(pts []geom.Point) *lineWriter {
	for _, p := range pts {
		w.num(p.X).num(p.Y)
	}
	return w
}

// end closes the command with ";\n" and writes it.
func (w *lineWriter) end() { w.str(";\n").flush() }

func (w *lineWriter) flush() {
	if w.err == nil {
		var n int
		n, w.err = w.w.Write(w.b)
		w.n += int64(n)
	}
	w.b = w.b[:0]
}

func writeSymbol(w *lineWriter, s *Symbol) {
	a, b := s.A, s.B
	if a == 0 || b == 0 {
		a, b = 1, 1
	}
	w.str("DS").num(s.ID)
	if a != 1 || b != 1 {
		w.num(a).num(b)
	}
	w.end()
	if s.Name != "" {
		w.str("9 ").str(s.Name).end()
	}
	var layer geom.Layer
	for _, e := range s.Elements {
		writeElement(w, e, &layer)
	}
	w.str("DF").end()
}

// writeElement emits one element, inserting an L command whenever the
// element's layer differs from the current one.
func writeElement(w *lineWriter, e Element, layer *geom.Layer) {
	setLayer := func(l geom.Layer) {
		if l != *layer && l != geom.LayerNone {
			w.str("L ").str(string(l)).end()
			*layer = l
		}
	}
	switch v := e.(type) {
	case Box:
		setLayer(v.Layer)
		w.str("B").num(v.Length).num(v.Width).num(v.Center.X).num(v.Center.Y)
		if v.Direction != geom.Pt(1, 0) && v.Direction != (geom.Point{}) {
			w.num(v.Direction.X).num(v.Direction.Y)
		}
	case Polygon:
		setLayer(v.Layer)
		w.str("P").path(v.Points)
	case Wire:
		setLayer(v.Layer)
		w.str("W").num(v.Width).path(v.Points)
	case RoundFlash:
		setLayer(v.Layer)
		w.str("R").num(v.Diameter).num(v.Center.X).num(v.Center.Y)
	case Call:
		w.str("C").num(v.SymbolID)
		writeTransform(w, v.Transform)
	case Connector:
		// a connector with no layer writes Layer.String's "(none)"
		w.str("94 ").str(v.Name).num(v.At.X).num(v.At.Y).str(" ").str(v.Layer.String()).num(v.Width)
	case UserExt:
		w.b = strconv.AppendInt(w.b, int64(v.Digit), 10)
		if v.Text != "" {
			w.str(" ").str(v.Text)
		}
	default:
		return
	}
	w.end()
}

// cifOrient writes each orientation as CIF mirror and rotation
// primitives.
var cifOrient = [...]string{
	geom.R90:    " R 0 1",
	geom.R180:   " R -1 0",
	geom.R270:   " R 0 -1",
	geom.MX:     " M X",
	geom.MXR90:  " M X R 0 1",
	geom.MXR180: " M X R -1 0",
	geom.MXR270: " M X R 0 -1",
}

// writeTransform appends a geom.Transform as a CIF transformation
// list: the orientation followed by the translation, which a
// transform with no orientation primitive writes even when it is zero.
func writeTransform(w *lineWriter, t geom.Transform) {
	var o string
	if int(t.O) < len(cifOrient) {
		o = cifOrient[t.O]
	}
	w.str(o)
	if t.D != (geom.Point{}) || o == "" {
		w.str(" T").num(t.D.X).num(t.D.Y)
	}
}
