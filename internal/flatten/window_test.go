package flatten

import (
	"testing"

	"riot/internal/geom"
	"riot/internal/rules"
)

// TestWindowMatchesBruteCull: Window's lattice-range culling must keep
// exactly the occurrences a brute per-copy box test keeps, and the
// surviving occurrences' geometry must match the full flatten's shapes
// for those occurrences rectangle for rectangle.
func TestWindowMatchesBruteCull(t *testing.T) {
	d := libDesign(t)
	top := srArray(t, d, 7, 5)
	full, err := Cell(top)
	if err != nil {
		t.Fatal(err)
	}
	pads := []int{0, rules.Lambda, 4 * rules.Lambda}
	clips := []geom.Rect{
		// a seam column between copies 2 and 3
		geom.R(3*20*rules.Lambda-1, 0, 3*20*rules.Lambda+1, 5*24*rules.Lambda),
		// a single interior cell
		geom.R(2*20*rules.Lambda, 1*24*rules.Lambda, 3*20*rules.Lambda, 2*24*rules.Lambda),
		// corner touching exactly one copy's corner point
		geom.R(20*rules.Lambda, 24*rules.Lambda, 20*rules.Lambda, 24*rules.Lambda),
		// fully off the array
		geom.R(-500*rules.Lambda, -500*rules.Lambda, -400*rules.Lambda, -400*rules.Lambda),
	}
	for _, pad := range pads {
		for ci, clip := range clips {
			win, err := Window(top, clip, pad)
			if err != nil {
				t.Fatal(err)
			}
			// brute reference: which full-flatten occurrences survive?
			grown := clip.Canon().Inset(-pad)
			var want []int
			for src, box := range full.SrcBoxes {
				if box.Touches(grown) {
					want = append(want, src)
				}
			}
			if len(win.SrcBoxes) != len(want) {
				t.Fatalf("clip %d pad %d: window kept %d occurrences, brute keeps %d",
					ci, pad, len(win.SrcBoxes), len(want))
			}
			for k, src := range want {
				if win.SrcBoxes[k] != full.SrcBoxes[src] {
					t.Fatalf("clip %d pad %d: occurrence %d box %v, want %v",
						ci, pad, k, win.SrcBoxes[k], full.SrcBoxes[src])
				}
				if win.SrcCells[k] != full.SrcCells[src] {
					t.Fatalf("clip %d pad %d: occurrence %d cell mismatch", ci, pad, k)
				}
			}
			// shape lists match per occurrence, with renumbered Src
			renum := map[int]int{}
			for k, src := range want {
				renum[src] = k
			}
			var wantShapes []Shape
			for _, s := range full.Shapes {
				if k, ok := renum[s.Src]; ok {
					wantShapes = append(wantShapes, Shape{s.Layer, s.R, k})
				}
			}
			if len(win.Shapes) != len(wantShapes) {
				t.Fatalf("clip %d pad %d: %d shapes, want %d", ci, pad, len(win.Shapes), len(wantShapes))
			}
			for i := range wantShapes {
				if win.Shapes[i] != wantShapes[i] {
					t.Fatalf("clip %d pad %d: shape %d = %+v, want %+v",
						ci, pad, i, win.Shapes[i], wantShapes[i])
				}
			}
		}
	}
}

// TestWindowOrientedArray: culling must stay correct when the array's
// instance transform rotates the lattice so i steps along Y.
func TestWindowOrientedArray(t *testing.T) {
	d := libDesign(t)
	top := srArray(t, d, 6, 3)
	top.Instances[0].Tr = geom.Transform{O: geom.R90, D: geom.Pt(0, 0)}
	full, err := Cell(top)
	if err != nil {
		t.Fatal(err)
	}
	bbox := full.SrcBoxes[0]
	for _, b := range full.SrcBoxes {
		bbox = bbox.Union(b)
	}
	third := (bbox.Max.Y - bbox.Min.Y) / 3
	clip := geom.R(bbox.Min.X, bbox.Min.Y+third, bbox.Max.X, bbox.Min.Y+third+rules.Lambda)
	win, err := Window(top, clip, 2*rules.Lambda)
	if err != nil {
		t.Fatal(err)
	}
	grown := clip.Inset(-2 * rules.Lambda)
	nwant := 0
	for _, b := range full.SrcBoxes {
		if b.Touches(grown) {
			nwant++
		}
	}
	if nwant == 0 || nwant == len(full.SrcBoxes) {
		t.Fatalf("bad test window: %d of %d survive", nwant, len(full.SrcBoxes))
	}
	if len(win.SrcBoxes) != nwant {
		t.Fatalf("window kept %d occurrences, brute keeps %d", len(win.SrcBoxes), nwant)
	}
}
