package geom

import "fmt"

// Layer identifies a mask layer. Layers carry the CIF layer name used
// for interchange; the standard nMOS set from Mead & Conway (the process
// every Caltech tool of the era targeted) is predeclared, but arbitrary
// layers read from CIF files are representable too.
type Layer string

// The standard nMOS CIF layers.
const (
	LayerNone Layer = ""   // no layer / unknown
	ND        Layer = "ND" // diffusion
	NP        Layer = "NP" // polysilicon
	NC        Layer = "NC" // contact cut
	NM        Layer = "NM" // metal
	NI        Layer = "NI" // depletion-mode implant
	NB        Layer = "NB" // buried contact
	NG        Layer = "NG" // overglass opening
)

// KnownLayers lists the predeclared nMOS layers in drawing order
// (bottom of the wafer first): diffusion, implant, buried, poly,
// contact, metal, glass.
var KnownLayers = []Layer{ND, NI, NB, NP, NC, NM, NG}

// Valid reports whether the layer is non-empty and consists of at most
// four characters, the CIF limit for layer names.
func (l Layer) Valid() bool { return l != "" && len(l) <= 4 }

// Routable reports whether wires may be drawn on the layer. Only
// diffusion, poly and metal carry signals between cells in this system;
// the river router refuses other layers.
func (l Layer) Routable() bool { return l == ND || l == NP || l == NM }

// String returns the CIF name of the layer.
func (l Layer) String() string {
	if l == LayerNone {
		return "(none)"
	}
	return string(l)
}

// Color is a display color index. The palette mirrors the four-pen
// HP 7221A plotter and the "Charles" color terminal conventions: each
// mask layer has a fixed color so "the size and color of the connector
// crosses indicates width and layer".
type Color uint8

// The display palette. Indices 1-4 correspond to the plotter's four
// pens.
const (
	ColorBlack   Color = iota // background / text
	ColorRed                  // pen 1: polysilicon
	ColorGreen                // pen 2: diffusion
	ColorBlue                 // pen 3: metal
	ColorYellow               // pen 4: implant, highlights
	ColorCyan                 // buried contact
	ColorMagenta              // glass
	ColorWhite                // contacts, outlines, menu text
	NumColors
)

var colorNames = [NumColors]string{
	"black", "red", "green", "blue", "yellow", "cyan", "magenta", "white",
}

// String returns the color's conventional name.
func (c Color) String() string {
	if int(c) < len(colorNames) {
		return colorNames[c]
	}
	return fmt.Sprintf("Color(%d)", uint8(c))
}

// RGB returns an 8-bit-per-channel rendering of the palette entry, used
// when the framebuffer is written out as a PPM image.
func (c Color) RGB() (r, g, b uint8) {
	switch c {
	case ColorRed:
		return 0xE0, 0x20, 0x20
	case ColorGreen:
		return 0x20, 0xC0, 0x20
	case ColorBlue:
		return 0x40, 0x60, 0xFF
	case ColorYellow:
		return 0xE0, 0xD0, 0x20
	case ColorCyan:
		return 0x20, 0xC0, 0xC0
	case ColorMagenta:
		return 0xC0, 0x40, 0xC0
	case ColorWhite:
		return 0xF0, 0xF0, 0xF0
	default:
		return 0x00, 0x00, 0x00
	}
}

// layerColors maps each predeclared layer to its display color.
var layerColors = map[Layer]Color{
	ND: ColorGreen,
	NP: ColorRed,
	NC: ColorWhite,
	NM: ColorBlue,
	NI: ColorYellow,
	NB: ColorCyan,
	NG: ColorMagenta,
}

// LayerColor returns the display color for a layer; unknown layers draw
// in white so they remain visible.
func LayerColor(l Layer) Color {
	if c, ok := layerColors[l]; ok {
		return c
	}
	return ColorWhite
}

// PlotterPen returns the HP 7221A pen number (1-4) used to plot the
// layer. The four-color plotter folds the palette: poly and glass share
// the red pen, diffusion and buried share green, metal shares blue with
// nothing, and everything else uses the yellow pen slot which is loaded
// with a black pen for outlines in practice.
func PlotterPen(l Layer) int {
	switch LayerColor(l) {
	case ColorRed, ColorMagenta:
		return 1
	case ColorGreen, ColorCyan:
		return 2
	case ColorBlue:
		return 3
	default:
		return 4
	}
}
