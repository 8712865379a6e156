package verify

import (
	"reflect"
	"testing"

	"riot/internal/castore"
	"riot/internal/core"
	"riot/internal/faultinject"
	"riot/internal/geom"
	"riot/internal/hier"
	"riot/internal/rules"
)

// faultCheck runs Verify and requires the report to equal the
// cache-free flat reference — the contract every injected fault must
// preserve: degradation may change HOW the verdict is computed, never
// WHAT it is.
func faultCheck(t *testing.T, v *Verifier, ed *core.Editor) *Report {
	t.Helper()
	rep, err := v.Verify(ed)
	if err != nil {
		t.Fatal(err)
	}
	wantCkt, wantErr, wantVs := scratch(t, ed.Cell)
	if (rep.CircuitErr == nil) != (wantErr == nil) {
		t.Fatalf("circuit err %v vs scratch %v", rep.CircuitErr, wantErr)
	}
	if rep.CircuitErr == nil && !reflect.DeepEqual(rep.Circuit, wantCkt) {
		t.Fatal("faulted circuit differs from scratch")
	}
	if !reflect.DeepEqual(rep.Violations, wantVs) {
		t.Fatalf("faulted violations differ from scratch\ngot:  %v\nwant: %v", rep.Violations, wantVs)
	}
	sameOccurrences(t, rep, ed.Cell)
	return rep
}

// declinedFlat requires that the verifier's last run declined with the
// given condition and was served by the scratch flat run.
func declinedFlat(t *testing.T, v *Verifier, cond hier.Cond) {
	t.Helper()
	if d := v.HierDeclineInfo(); d == nil || d.Cond != cond {
		t.Fatalf("decline = %+v, want condition %s", d, cond)
	}
	if st := v.Stats(); st.Hier != 0 || st.Full == 0 {
		t.Fatalf("declined run should fall back flat: %+v", st)
	}
}

// TestVerifierFaultMatrix drives every fault-injection point through
// the full verifier and differential-tests each one against the flat
// reference. Every subtest additionally asserts the fault actually
// fired (a fault that never reaches its code path proves nothing) and
// that the degradation is visible in the stats counters the -stats
// reports read. CI runs this matrix under -race.
func TestVerifierFaultMatrix(t *testing.T) {
	t.Run("cert-pend", func(t *testing.T) {
		ed := gridEditor(t, 9)
		if _, err := ed.CreateInstance("NAND", "n0",
			geom.MakeTransform(geom.R0, geom.Pt(128*rules.Lambda, 0)), 1, 1, 0, 0); err != nil {
			t.Fatal(err)
		}
		v := &Verifier{Hier: true}
		f := faultinject.New()
		f.Enable(faultinject.CertPend, "NAND")
		v.InjectFaults(f)
		faultCheck(t, v, ed)
		if f.Hits(faultinject.CertPend) == 0 {
			t.Fatal("cert-pend fault armed but never fired")
		}
		declinedFlat(t, v, hier.CondPend)
	})

	t.Run("template-poison", func(t *testing.T) {
		ed := gridEditor(t, 9)
		v := &Verifier{Hier: true}
		f := faultinject.New()
		f.Enable(faultinject.TemplatePoison, "0")
		v.InjectFaults(f)
		faultCheck(t, v, ed)
		if f.Hits(faultinject.TemplatePoison) == 0 {
			t.Fatal("template-poison fault armed but never fired")
		}
		declinedFlat(t, v, hier.CondPoison)
	})

	t.Run("cert-decode", func(t *testing.T) {
		dir := t.TempDir()
		st1, err := castore.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		v1 := &Verifier{Hier: true}
		v1.AttachDisk(st1, &castore.Signer{})
		if _, err := v1.Verify(gridEditor(t, 9)); err != nil {
			t.Fatal(err)
		}
		if v1.HierStats().CertStored == 0 {
			t.Fatalf("cold run stored no certificates: %+v", v1.HierStats())
		}
		if err := st1.Close(); err != nil {
			t.Fatal(err)
		}

		st2, err := castore.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer st2.Close()
		v2 := &Verifier{Hier: true}
		f := faultinject.New()
		f.Enable(faultinject.CertDecode, "")
		v2.InjectFaults(f)
		v2.AttachDisk(st2, &castore.Signer{})
		faultCheck(t, v2, gridEditor(t, 9))
		if f.Hits(faultinject.CertDecode) == 0 {
			t.Fatal("cert-decode fault armed but never fired")
		}
		// the corrupted payload must be rejected and the certificate
		// rebuilt cold, not trusted
		if hs := v2.HierStats(); hs.CertBuilt == 0 {
			t.Fatalf("warm run with corrupt payloads rebuilt nothing: %+v", hs)
		}
	})

	t.Run("store-corrupt", func(t *testing.T) {
		dir := t.TempDir()
		st1, err := castore.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		v1 := &Verifier{Hier: true}
		v1.AttachDisk(st1, &castore.Signer{})
		if _, err := v1.Verify(gridEditor(t, 9)); err != nil {
			t.Fatal(err)
		}
		if err := st1.Close(); err != nil {
			t.Fatal(err)
		}

		st2, err := castore.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer st2.Close()
		f := faultinject.New()
		f.Enable(faultinject.StoreCorrupt, "")
		st2.Faults = f
		v2 := &Verifier{Hier: true}
		v2.AttachDisk(st2, &castore.Signer{})
		faultCheck(t, v2, gridEditor(t, 9))
		if f.Hits(faultinject.StoreCorrupt) == 0 {
			t.Fatal("store-corrupt fault armed but never fired")
		}
		if cs := st2.Stats(); cs.Corrupt == 0 {
			t.Fatalf("corrupted reads not counted by the store: %+v", cs)
		}
	})

	t.Run("compose-budget", func(t *testing.T) {
		ed := gridEditor(t, 9)
		v := &Verifier{Hier: true}
		f := faultinject.New()
		f.Enable(faultinject.ComposeBudget, "")
		v.InjectFaults(f)
		faultCheck(t, v, ed)
		if f.Hits(faultinject.ComposeBudget) == 0 {
			t.Fatal("compose-budget fault armed but never fired")
		}
		declinedFlat(t, v, hier.CondComposeBudget)
	})
}

// TestVerifierFaultMatrixUnderEdits runs a short editing trace with
// pend and poison faults both armed — the pend NAND declines the first
// generations, the poisoned center the ones after the NAND's deletion,
// and every generation's verdict must equal scratch.
func TestVerifierFaultMatrixUnderEdits(t *testing.T) {
	ed := gridEditor(t, 9)
	nand, err := ed.CreateInstance("NAND", "n0",
		geom.MakeTransform(geom.R0, geom.Pt(128*rules.Lambda, 0)), 1, 1, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	v := &Verifier{Hier: true}
	f := faultinject.New()
	f.Enable(faultinject.CertPend, "NAND")
	f.Enable(faultinject.TemplatePoison, "4")
	v.InjectFaults(f)
	for step := 0; step < 4; step++ {
		faultCheck(t, v, ed)
		want := hier.CondPend
		if step >= 2 {
			want = hier.CondPoison
		}
		declinedFlat(t, v, want)
		if step == 1 {
			if err := ed.DeleteInstance(nand); err != nil {
				t.Fatal(err)
			}
		}
		ed.MoveInstance(ed.Cell.Instances[step], geom.Pt(rules.Lambda, 0))
	}
	if st := v.Stats(); st.Full != 4 {
		t.Fatalf("every generation should run flat: %+v", st)
	}
	if f.Hits(faultinject.CertPend) == 0 || f.Hits(faultinject.TemplatePoison) == 0 {
		t.Fatalf("faults armed but idle: %s", f)
	}
}
