package telemetry

// The reporting face: the hot-site profile table behind `sharc profile`
// and the compact summary behind `sharc run -metrics`. The suggested-mode
// column applies the paper's §4.1 annotation heuristics in reverse: the
// inference seeds private-vs-dynamic from observed sharing, and a profile
// of what the dynamic checks actually saw tells the programmer which sites
// can be promoted to a cheaper static mode (private, readonly, locked(l))
// and which need attention.

import (
	"fmt"
	"strings"
)

// suggestMode applies the annotation heuristics to one site's metrics:
//
//   - conflicts on a site whose every access ran under a held lock:
//     locked(l) — the sharing is real but consistently locked, which
//     dynamic mode cannot express (the Eraser-style lockset reading);
//   - any other violation: the site needs investigation before
//     re-annotating;
//   - every check statically elided: nothing to change — static discharge
//     proved the check unnecessary (read/write mix is unknown for such
//     sites, so no mode promotion is inferred);
//   - one thread ever touched it: private (no checks needed at all);
//   - several threads but never a write: readonly;
//   - already locked mode, clean: keep locked;
//   - every dynamic access ran under some held lock: locked(l) — consistent
//     locking means the lock log check replaces the reader/writer sets;
//   - otherwise the dynamic instrumentation is doing real work: dynamic.
func suggestMode(s *SiteStats) string {
	switch {
	case s.Conflicts > 0 && s.Conflicts == s.Violations() &&
		s.Reads+s.Writes > 0 && s.UnderLock == s.Reads+s.Writes:
		return "locked(l)"
	case s.Violations() > 0:
		return "investigate"
	case s.Elided > 0 && s.Checks() == 0:
		return "(elided)"
	case s.Threads() <= 1:
		return "private"
	case s.WriteThreads == 0 && s.Locked == 0:
		return "readonly"
	case s.Locked > 0:
		return "locked"
	case s.UnderLock == s.Reads+s.Writes && s.Writes > 0:
		return "locked(l)"
	default:
		return "dynamic"
	}
}

// FormatSummary renders the global and per-mode rollups in a few lines,
// the -metrics view on run/explore.
func FormatSummary(snap *Snapshot) string {
	if snap == nil {
		return ""
	}
	g := snap.Global
	var sb strings.Builder
	fmt.Fprintf(&sb, "telemetry: accesses=%d dynamic=%d locked=%d elided=%d conflicts=%d lockviol=%d oneref=%d threads=%d\n",
		g.TotalAccesses, g.DynamicChecks, g.LockChecks, g.ElidedChecks,
		g.Conflicts, g.LockViolations, g.OnerefFailures, g.MaxThreads)
	if len(snap.Modes) > 0 {
		fmt.Fprintf(&sb, "%-8s %6s %10s %10s %10s\n",
			"mode", "sites", "checks", "elided", "violations")
		for _, m := range snap.Modes {
			fmt.Fprintf(&sb, "%-8s %6d %10d %10d %10d\n",
				m.Mode, m.Sites, m.Checks, m.Elided, m.Violations)
		}
	}
	return sb.String()
}

// FormatProfile renders the hot-site table: the top sites by activity
// (executed plus elided checks), each with its check mix, the fraction of
// checks avoided by static discharge, violation count, thread
// footprint, and the suggested annotation.
func FormatProfile(snap *Snapshot, top int) string {
	return FormatProfileVet(snap, top, nil)
}

// FormatProfileVet is FormatProfile with an extra column comparing each
// site's telemetry-suggested mode against the static vet verdict for the
// same position (verdicts is keyed "file:line:col"; nil omits the column).
// A trailing ! flags the interesting disagreements: vet proved a race or
// lock violation possible at a site whose observed schedule looked
// single-threaded or read-only, or the run produced violations at a site
// vet marked safe (the latter would be a vet soundness bug).
func FormatProfileVet(snap *Snapshot, top int, verdicts map[string]string) string {
	if snap == nil {
		return "telemetry disabled\n"
	}
	if top <= 0 {
		top = 10
	}
	n := len(snap.Sites)
	shown := n
	if shown > top {
		shown = top
	}
	g := snap.Global
	var sb strings.Builder
	fmt.Fprintf(&sb, "profile: %d accesses, %d dynamic checks, %d locked checks, %d threads peak\n",
		g.TotalAccesses, g.DynamicChecks, g.LockChecks, g.MaxThreads)
	fmt.Fprintf(&sb, "hot sites: top %d of %d (ranked by checks executed + elided)\n", shown, n)
	if verdicts == nil {
		fmt.Fprintf(&sb, "%4s %9s %8s %8s %8s %8s %7s %6s %4s  %-12s %s\n",
			"rank", "checks", "reads", "writes", "locked", "elided", "avoid%", "confl", "thr",
			"suggested", "site")
	} else {
		fmt.Fprintf(&sb, "%4s %9s %8s %8s %8s %8s %7s %6s %4s  %-12s %-15s %s\n",
			"rank", "checks", "reads", "writes", "locked", "elided", "avoid%", "confl", "thr",
			"suggested", "vet", "site")
	}
	for i := 0; i < shown; i++ {
		s := &snap.Sites[i]
		if verdicts == nil {
			fmt.Fprintf(&sb, "%4d %9d %8d %8d %8d %8d %6.1f%% %6d %4d  %-12s %s @ %s\n",
				i+1, s.Checks(), s.Reads, s.Writes, s.Locked, s.Elided,
				s.AvoidedPct(), s.Violations(), s.Threads(), s.Suggested,
				s.LValue, s.Pos)
			continue
		}
		verdict, ok := verdicts[s.Pos]
		if !ok {
			verdict = "-"
		}
		if vetMismatch(s, verdict) {
			verdict += " !"
		}
		fmt.Fprintf(&sb, "%4d %9d %8d %8d %8d %8d %6.1f%% %6d %4d  %-12s %-15s %s @ %s\n",
			i+1, s.Checks(), s.Reads, s.Writes, s.Locked, s.Elided,
			s.AvoidedPct(), s.Violations(), s.Threads(), s.Suggested,
			verdict, s.LValue, s.Pos)
	}
	return sb.String()
}

// vetMismatch reports whether a site's dynamic telemetry and static vet
// verdict point in opposite directions.
func vetMismatch(s *SiteStats, verdict string) bool {
	vetRacy := strings.HasSuffix(verdict, "-race") || strings.HasSuffix(verdict, "-lock") ||
		verdict == "readonly-write"
	switch {
	case verdict == "safe" && s.Violations() > 0:
		// Vet proved the site safe yet the run reported a violation there.
		return true
	case vetRacy && (s.Suggested == "private" || s.Suggested == "readonly"):
		// Statically reachable race at a site this schedule never shared.
		return true
	}
	return false
}
