package shell

import (
	"riot/internal/faultinject"
	"riot/internal/obs"
)

// This file wires every pipeline Stats struct into one obs.Registry, so
// all stats surfaces — the shell STATS command, riot -stats (any mode),
// and Session.Snapshot() — render the same sections in the same order
// with the same keys. Sections register up front with live providers;
// the ones for optional subsystems (the persistent store, the fault
// set) return nil until attached, which drops them from snapshots
// without perturbing the order of the rest.

// initRegistry registers every section. Called once from New; the
// providers read the shell's live fields, so late attachment (a cache,
// a fault set) shows up in the next snapshot without re-wiring.
func (s *Shell) initRegistry() {
	r := obs.NewRegistry()
	r.Register("verify", func() []obs.Item {
		vs := s.Verifier.Stats()
		return []obs.Item{
			obs.N("cached", vs.Cached),
			obs.N("full", vs.Full),
			obs.N("hier", vs.Hier),
		}
	})
	r.Register("hier", func() []obs.Item {
		hs := s.Verifier.HierStats()
		items := []obs.Item{
			obs.N("runs", hs.Runs),
			obs.N("fast", hs.FastRuns),
			obs.N("fallbacks", hs.Fallbacks),
			obs.N("cert_built", hs.CertBuilt),
			obs.N("cert_memo_hits", hs.CertMemoHits),
			obs.N("cert_disk_hits", hs.CertDiskHits),
			obs.N("cert_stored", hs.CertStored),
			obs.N("template_built", hs.TemplateBuilt),
			obs.N("template_hits", hs.TemplateHits),
			obs.N("retained", hs.Retained),
			obs.N("pairs_composed", hs.PairsComposed),
			obs.N("labels_local", hs.LabelsLocal),
			obs.N("labels_context", hs.LabelsContext),
		}
		if d := s.Verifier.HierDeclineInfo(); d != nil {
			items = append(items, obs.S("decline", string(d.Cond)))
		}
		return items
	})
	r.Register("lvs", func() []obs.Item {
		rs := s.LVS.Ref.Stats()
		items := []obs.Item{
			obs.N("leaves_extracted", rs.LeavesExtracted),
			obs.N("ref_templates_built", rs.TemplatesBuilt),
			obs.N("ref_template_hits", rs.TemplateHits),
			obs.N("names_formatted", rs.NamesFormatted),
			obs.N("template_certified", rs.TemplateCertified),
		}
		if last := s.LVS.Last(); last != nil {
			ct := last.Cert
			fallback := 0
			if ct.Fallback {
				fallback = 1
			}
			items = append(items,
				obs.N("occurrences", ct.Occurrences),
				obs.N("certified", ct.Certified),
				obs.N("fallback", fallback),
			)
		}
		return items
	})
	r.Register("castore", func() []obs.Item {
		if s.Cache == nil {
			return nil
		}
		cst := s.Cache.Stats()
		return []obs.Item{
			obs.N("hits", cst.Hits),
			obs.N("misses", cst.Misses),
			obs.N("puts", cst.Puts),
			obs.N("put_errors", cst.PutErrors),
			obs.N("corrupt", cst.Corrupt),
			obs.N("quarantined", cst.Quarantined),
		}
	})
	r.Register("faults", func() []obs.Item {
		if s.Faults == nil {
			return nil
		}
		items := make([]obs.Item, 0, len(faultinject.Points))
		for _, p := range faultinject.Points {
			items = append(items, obs.N(string(p), s.Faults.Hits(p)))
		}
		return items
	})
	s.reg = r
}

// Registry exposes the shell's stats registry (consumers can register
// their own sections alongside the pipeline's).
func (s *Shell) Registry() *obs.Registry { return s.reg }

// Snapshot pulls the current unified stats: the same content the STATS
// command and riot -stats render.
func (s *Shell) Snapshot() *obs.Snapshot { return s.reg.Snapshot() }

// VerifiedAny reports whether any verification work ran this session —
// the "is there anything to report" test behind riot -stats' exit code.
func (s *Shell) VerifiedAny() bool {
	vs := s.Verifier.Stats()
	return vs.Cached+vs.Full+vs.Hier > 0
}

// SetTrace wires a span recorder through the whole session: the verify
// pipeline (flatten, extract, drc, hier), LVS and the persistent store.
// nil detaches tracing everywhere.
func (s *Shell) SetTrace(t *obs.Trace) {
	s.trace = t
	s.Verifier.SetTrace(t)
	s.LVS.Trace = t
	if s.Cache != nil {
		s.Cache.Trace = t
	}
}

// Trace reports the recorder SetTrace installed, or nil.
func (s *Shell) Trace() *obs.Trace { return s.trace }

// cmdStats prints the unified stats snapshot; STATS JSON prints the
// machine-readable form (identical content, one object).
func cmdStats(s *Shell, args []string) error {
	if len(args) > 0 && (args[0] == "JSON" || args[0] == "json") {
		s.printf("%s\n", s.Snapshot().JSON())
		return nil
	}
	s.printf("%s", s.Snapshot().Text())
	return nil
}
