package server

import (
	"fmt"
	"maps"
	"slices"
	"strconv"
	"strings"

	"omos/internal/constraint"
	"omos/internal/fault"
	"omos/internal/mgraph"
	"omos/internal/refusal"
	"omos/internal/store"
)

// This file is the live-upgrade engine: the transactional path for
// redefining libraries while the daemon serves traffic.
//
// An upgrade opens an *epoch*: a second namespace version that layers
// the staged definitions over the committed one.  A deterministic
// fraction of instantiations (the canary cohort) reads that version and
// builds v2 images through the ordinary cache/rebase pipeline, while
// everything else — and every process already running — keeps
// resolving v1.  A health gate watches the cohort (build failures
// against the pre-upgrade EWMA baseline, pin violations, quarantine
// events) and on regression rolls the epoch back automatically: staged
// definitions are discarded, the cohort's images are released with the
// binding tables resolved against them, and a typed
// *refusal.UpgradeAbortedError carries the verdict.  Commit is
// write-ahead: the intent is made durable in the store (codec v4)
// before the staged definitions replace their paths in one version
// swap, so a daemon killed mid-commit warm-restarts into either the
// fully-committed or the fully-rolled-back namespace — never a torn
// one, and no request ever reads a torn one either.
//
// The epoch itself is the explicit rebind allow: every definition it
// applies at commit passes the rebind guard with the allow flag
// carried by the epoch, so a multi-library upgrade can never be
// half-guarded by one call omitting the flag.

// Health-gate tuning.  The baseline EWMA moves slowly (it is the
// long-run failure rate of the serving namespace); the cohort EWMA
// moves fast, so a genuinely broken canary trips the gate within a
// few builds.  The margin absorbs baseline noise.
const (
	baselineAlpha = 0.1
	cohortAlpha   = 0.5
	gateMargin    = 0.25
)

// epochStoreKey is the reserved store key the epoch record persists
// under.  It is skipped by attach and capacity eviction: it is
// transaction state, not an image.
const epochStoreKey = "upgrade.epoch"

// epochLib is one staged definition: the parsed v2 entry plus what is
// needed to persist and audit the transition.
type epochLib struct {
	entry    nsEntry
	newSrc   string
	oldSrc   string
	isLib    bool
	hadPrior bool
}

// upgradeEpoch is the in-memory state of one live upgrade.
type upgradeEpoch struct {
	id        string
	canaryPct int
	libs      map[string]epochLib
	order     []string

	// Health-gate state: the pre-upgrade baseline and the cohort's
	// running verdict.
	baseline    float64
	basePinViol uint64
	baseQuar    uint64
	cohortEWMA  float64
	cohortRuns  uint64
	cohortFails uint64

	// view is the last committed version published with this epoch's
	// staged view (view.staged): rollback hashes the staged libraries in
	// both to tell the images v2 built from v1's (retireStaged).
	view *nsVersion

	rollingBack bool
	verdict     string
}

// upgradeEvent is one audit-trail entry surfaced through Explain.
type upgradeEvent struct {
	line  string
	paths map[string]bool
}

// UpgradeStatusInfo is the observable state of the upgrade engine.
type UpgradeStatusInfo struct {
	Active      bool
	Epoch       string
	CanaryPct   int
	Libs        []string
	CohortRuns  uint64
	CohortFails uint64
	CohortEWMA  float64
	Baseline    float64
	RollingBack bool
	Verdict     string
	LastAborted string
}

// ---- canary placement ----

// canaryPick decides, deterministically, whether a top-level
// instantiation that took version v joins the canary cohort and reads
// v.staged instead: the same program under the same epoch always lands
// on the same side, so a client's retries converge instead of flapping
// between versions.  With no epoch open, or a 0% canary, it reads only
// v; confirming that the epoch is still open takes upMu.
func (s *Server) canaryPick(v *nsVersion, meta *mgraph.Meta) bool {
	if v.staged == nil || v.staged.epoch.canaryPct <= 0 {
		return false
	}
	ep := v.staged.epoch
	if ep.canaryPct < 100 {
		// 32 hash bits: the residues of 2^32 mod 100 are uneven by
		// less than one part in 4·10^7 (one byte made a 10% canary 11.7%).
		h := mgraph.Digest("canary", ep.id, meta.SrcHash)
		n, _ := strconv.ParseUint(h[:8], 16, 64)
		if int(n%100) >= ep.canaryPct {
			return false
		}
	}
	s.upMu.Lock()
	defer s.upMu.Unlock()
	return s.epoch == ep && !ep.rollingBack
}

// storeQuarantined snapshots the store's quarantine counter (0 when no
// store is attached).  Taken outside upMu: cacheMu never nests inside
// it.
func (s *Server) storeQuarantined() uint64 {
	s.cacheMu.RLock()
	st := s.store
	s.cacheMu.RUnlock()
	if st == nil {
		return 0
	}
	return st.Stats().Quarantined
}

// ---- the epoch lifecycle ----

// UpgradeStart opens an upgrade epoch with the given canary
// percentage: pct of instantiations evaluate against the staged
// definitions (0 stages without routing anyone; 100 routes everyone).
// Only one epoch may be open at a time.
func (s *Server) UpgradeStart(canaryPct int) (string, error) {
	if canaryPct < 0 || canaryPct > 100 {
		return "", fmt.Errorf("server: canary percentage %d out of range [0,100]", canaryPct)
	}
	quar := s.storeQuarantined()
	s.upMu.Lock()
	if s.epoch != nil {
		id := s.epoch.id
		s.upMu.Unlock()
		return "", fmt.Errorf("server: upgrade %s already in progress", id)
	}
	ep := &upgradeEpoch{
		id:          fmt.Sprintf("up%d.%d", s.epochSeq.Add(1), s.ns.Load().num),
		canaryPct:   canaryPct,
		libs:        map[string]epochLib{},
		baseline:    s.baseFailEWMA,
		basePinViol: s.stats.pinViolations.Load(),
		baseQuar:    quar,
	}
	s.epoch = ep
	s.lastAborted.Store(nil)
	s.auditLocked(ep, fmt.Sprintf("epoch %s opened (canary %d%%)", ep.id, canaryPct))
	s.writeNSLocked(nil)
	s.upMu.Unlock()
	s.stats.upgradesStarted.Add(1)
	if err := s.persistEpoch(store.EpochActive); err != nil {
		return ep.id, fmt.Errorf("server: upgrade %s: persisting epoch: %w", ep.id, err)
	}
	return ep.id, nil
}

// UpgradeStage stages a v2 definition into the active epoch.  The
// source is parsed and validated now — a blueprint that cannot build
// never reaches the namespace — but nothing outside the canary cohort
// sees it until commit.
func (s *Server) UpgradeStage(p, src string, isLib bool) error {
	meta, err := parseMeta(p, src, isLib)
	if err != nil {
		return err
	}
	pc := cleanPath(p)
	prior, hadPrior := s.ns.Load().entries[pc]
	el := epochLib{entry: nsEntry{meta: meta}, newSrc: src, isLib: isLib, hadPrior: hadPrior}
	if hadPrior && prior.meta != nil {
		el.oldSrc = prior.meta.Src
	}
	s.upMu.Lock()
	ep := s.epoch
	if ep == nil {
		s.upMu.Unlock()
		if ab := s.lastAborted.Load(); ab != nil {
			return ab
		}
		return fmt.Errorf("server: stage %s: no active upgrade epoch", pc)
	}
	if ep.rollingBack {
		s.upMu.Unlock()
		return fmt.Errorf("server: stage %s: upgrade %s is rolling back", pc, ep.id)
	}
	if _, dup := ep.libs[pc]; !dup {
		ep.order = append(ep.order, pc)
	}
	ep.libs[pc] = el
	s.auditLocked(ep, fmt.Sprintf("epoch %s staged %s", ep.id, pc))
	s.writeNSLocked(nil)
	s.upMu.Unlock()
	if err := s.persistEpoch(store.EpochActive); err != nil {
		return fmt.Errorf("server: stage %s: persisting epoch: %w", pc, err)
	}
	return nil
}

// UpgradeCommit applies the epoch: the commit intent is made durable
// first (write-ahead), then the definitions parsed at stage time
// replace their paths' entries in one version swap, so a request sees
// all of them or none — and a crash in between is redone at the next
// warm boot, never left torn.  The canary cohort's v2 images become
// cache hits for everyone: their content hashes are exactly the
// committed namespace's.
func (s *Server) UpgradeCommit() (err error) {
	s.upMu.Lock()
	ep := s.epoch
	if ep == nil {
		s.upMu.Unlock()
		if ab := s.lastAborted.Load(); ab != nil {
			return ab
		}
		return fmt.Errorf("server: commit: no active upgrade epoch")
	}
	if ep.rollingBack {
		s.upMu.Unlock()
		return fmt.Errorf("server: commit: upgrade %s is rolling back: %s", ep.id, ep.verdict)
	}
	libs := maps.Clone(ep.libs)
	runs, fails := ep.cohortRuns, ep.cohortFails
	s.upMu.Unlock()
	// A panic anywhere below (an injected fault, a decoder bug) leaves
	// the epoch open and the durable intent in place: the commit is
	// simply retried.
	defer func() {
		if r := recover(); r != nil {
			s.stats.recovered.Add(1)
			err = fmt.Errorf("server: upgrade commit %s: recovered panic: %v", ep.id, r)
		}
	}()
	if err := s.persistEpoch(store.EpochCommitting); err != nil {
		return fmt.Errorf("server: upgrade commit %s: persisting intent: %w", ep.id, err)
	}
	if err := s.faults.Fire(fault.SiteUpgradeCommit); err != nil {
		return fmt.Errorf("server: upgrade commit %s: %w", ep.id, err)
	}
	// The epoch carries the allow: every conflicting rebind is counted
	// as allowed, none can slip through half-guarded.
	for p, el := range libs {
		_ = s.guardDefine(p, el.entry.meta.SrcHash, true)
	}
	s.upMu.Lock()
	if s.epoch != ep || ep.rollingBack {
		s.upMu.Unlock()
		return fmt.Errorf("server: upgrade commit %s: the epoch ended before the swap", ep.id)
	}
	s.epoch = nil
	s.writeNSLocked(func(v *nsVersion) {
		for p, el := range libs {
			v.entries[p] = el.entry
		}
	})
	s.auditLocked(ep, fmt.Sprintf("epoch %s committed %d path(s) (canary %d%%, %d cohort builds, %d failed)",
		ep.id, len(libs), ep.canaryPct, runs, fails))
	s.upMu.Unlock()
	s.deleteEpochRecord()
	s.stats.upgradesCommitted.Add(1)
	return nil
}

// UpgradeRollback aborts the active epoch by operator request.  Safe
// to retry: a rollback interrupted by an injected fault leaves the
// epoch flagged rolling-back (health reports it) and the next call
// finishes the job.
func (s *Server) UpgradeRollback(reason string) error {
	if reason == "" {
		reason = "operator rollback"
	}
	s.upMu.Lock()
	ep := s.epoch
	if ep == nil {
		s.upMu.Unlock()
		return fmt.Errorf("server: rollback: no active upgrade epoch")
	}
	if !ep.rollingBack {
		ep.rollingBack = true
		ep.verdict = reason
		s.writeNSLocked(nil)
	} else {
		reason = ep.verdict
	}
	s.upMu.Unlock()
	return s.rollbackEpoch(ep, reason, false)
}

// rollbackEpoch unwinds an epoch: the images v2 built are released
// (retireStaged) and what v2 resolved is forgotten, the durable record
// is deleted, and the typed abort is retained for the next
// status/stage/commit call.
func (s *Server) rollbackEpoch(ep *upgradeEpoch, verdict string, auto bool) error {
	if err := s.faults.Fire(fault.SiteUpgradeRollback); err != nil {
		return fmt.Errorf("server: rollback of %s: %w", ep.id, err)
	}
	s.upMu.Lock()
	staged := maps.Clone(ep.libs)
	view := ep.view
	s.upMu.Unlock()
	// A canary build recorded a variant beside v1's, never over it: the
	// tables of staged paths and those resolved against a released image
	// go, and v1's variants answer again.
	released := s.retireStaged(staged, view)
	s.dropBindings(func(t *BindingTable) bool {
		_, isStaged := staged[t.Image]
		return isStaged || slices.ContainsFunc(t.LibKeys, func(ck string) bool { return released[ck] })
	})
	s.upMu.Lock()
	if s.epoch == ep {
		s.epoch = nil
		s.writeNSLocked(nil)
	}
	s.auditLocked(ep, fmt.Sprintf("epoch %s rolled back: %s", ep.id, verdict))
	s.upMu.Unlock()
	s.deleteEpochRecord()
	s.stats.upgradesRolledBack.Add(1)
	s.lastAborted.Store(&refusal.UpgradeAbortedError{Epoch: ep.id, Verdict: verdict, Auto: auto})
	return nil
}

// retireStaged releases what an epoch built against its staged view,
// and nothing else: the images of a staged library whose content hash
// in view.staged is v2's, not view's v1, every image of a staged path
// that records no content hash (a program, a branch-table library, or
// any path when no staged view was published), and every image linked
// against one of those, transitively.  v1's images stay, live or
// dormant, with their store records and the shapes those keep; so do
// the images of programs the cohort ran against unchanged libraries,
// which are v1's too.  Running processes keep their mapped frames
// through their own references; the released entries and blobs go.
//
// v1 and v2 share each solver key, and Solver.Place re-placed a key
// whose v2 image grew.  So each key a released image was placed under
// goes back to the placement of the most recently used image kept
// under it, and is released when none is kept.  It returns the content
// keys of the released images.
func (s *Server) retireStaged(staged map[string]epochLib, view *nsVersion) map[string]bool {
	v2 := map[string]string{} // staged library -> its v2 content hash
	whole := map[string]bool{}
	for p, el := range staged {
		if !el.isLib || view == nil {
			whole[p] = true
			continue
		}
		ch2, err := (evalCtx{s: s, v: view.staged}).ContentHash(p)
		if err != nil {
			whole[p] = true
			continue
		}
		if ch1, err := (evalCtx{s: s, v: view}).ContentHash(p); err != nil || ch1 != ch2 {
			v2[p] = ch2
		}
	}
	s.cacheMu.Lock()
	defer s.cacheMu.Unlock()
	victims := map[string]bool{}
	for key, e := range s.entries {
		p := strings.TrimPrefix(e.name, "lib:")
		ch, changed := v2[p]
		if whole[p] || changed && (e.name != p || e.content == "" || e.content == ch) {
			victims[key] = true
		}
	}
	s.addDependentsLocked(victims)
	placed, released := map[string]bool{}, map[string]bool{}
	for key := range victims {
		placed[s.entries[key].place.SolverKey] = true
		released[s.entries[key].ckey] = true
		s.retireLocked(key, false)
	}
	s.solverMu.Lock()
	defer s.solverMu.Unlock()
	for sk := range placed {
		var keep *entry
		for _, e := range s.entries {
			if e.place.SolverKey == sk && (keep == nil || e.lastUse.Load() > keep.lastUse.Load()) {
				keep = e
			}
		}
		if keep == nil {
			s.solver.Release(sk)
			continue
		}
		pr := keep.place
		if at, ok := s.solver.Lookup(sk); ok && at.TextBase == pr.TextBase && at.DataBase == pr.DataBase {
			continue
		}
		s.solver.Release(sk)
		// A region taken meanwhile leaves the key unplaced: v1 is placed
		// afresh and linked there.
		_ = s.solver.Restore(sk, constraint.Placement{TextBase: pr.TextBase, DataBase: pr.DataBase},
			pr.TextSize, pr.DataSize)
	}
	delete(released, "") // a branch-table library's: no table replays against it
	return released
}

// UpgradeStatus reports the engine's observable state.
func (s *Server) UpgradeStatus() UpgradeStatusInfo {
	s.upMu.Lock()
	defer s.upMu.Unlock()
	st := UpgradeStatusInfo{Baseline: s.baseFailEWMA}
	if ab := s.lastAborted.Load(); ab != nil {
		st.LastAborted = ab.Verdict
	}
	ep := s.epoch
	if ep == nil {
		return st
	}
	st.Active = true
	st.Epoch = ep.id
	st.CanaryPct = ep.canaryPct
	st.Libs = append([]string(nil), ep.order...)
	st.CohortRuns = ep.cohortRuns
	st.CohortFails = ep.cohortFails
	st.CohortEWMA = ep.cohortEWMA
	st.Baseline = ep.baseline
	st.RollingBack = ep.rollingBack
	st.Verdict = ep.verdict
	return st
}

// LastUpgradeAborted returns the typed verdict of the most recent
// rollback (nil if none since the last epoch opened).
func (s *Server) LastUpgradeAborted() *refusal.UpgradeAbortedError {
	return s.lastAborted.Load()
}

// ---- the health gate ----

// observeInstantiation feeds one top-level instantiation outcome to
// the health gate: baseline traffic moves the slow server-wide EWMA,
// cohort traffic moves the epoch's fast EWMA and may trip the gate —
// in which case the rollback runs synchronously, so the caller that
// tripped it observes the post-rollback namespace.
func (s *Server) observeInstantiation(cohort bool, err error) {
	f := 0.0
	if err != nil {
		f = 1.0
	}
	quar := s.storeQuarantined()
	safeRollback := func(ep *upgradeEpoch, verdict string) {
		defer func() {
			if r := recover(); r != nil {
				s.stats.recovered.Add(1)
			}
		}()
		s.rollbackEpoch(ep, verdict, true)
	}
	s.upMu.Lock()
	ep := s.epoch
	if ep == nil || !cohort {
		s.baseFailEWMA = (1-baselineAlpha)*s.baseFailEWMA + baselineAlpha*f
		// A rollback stalled by an injected fault is nudged along by
		// any traffic at all.
		if ep != nil && ep.rollingBack {
			verdict := ep.verdict
			s.upMu.Unlock()
			safeRollback(ep, verdict)
			return
		}
		s.upMu.Unlock()
		return
	}
	ep.cohortRuns++
	if err != nil {
		ep.cohortFails++
	}
	ep.cohortEWMA = (1-cohortAlpha)*ep.cohortEWMA + cohortAlpha*f
	if ep.rollingBack {
		verdict := ep.verdict
		s.upMu.Unlock()
		safeRollback(ep, verdict)
		return
	}
	verdict := s.gateVerdictLocked(ep, quar)
	if verdict == "" {
		s.upMu.Unlock()
		return
	}
	ep.rollingBack = true
	ep.verdict = verdict
	s.writeNSLocked(nil)
	s.upMu.Unlock()
	safeRollback(ep, verdict)
}

// gateVerdictLocked evaluates the health gate ("" = healthy).  Caller
// holds upMu.
func (s *Server) gateVerdictLocked(ep *upgradeEpoch, quar uint64) string {
	if pv := s.stats.pinViolations.Load(); pv > ep.basePinViol {
		return fmt.Sprintf("pin violations rose %d -> %d during the epoch", ep.basePinViol, pv)
	}
	if quar > ep.baseQuar {
		return fmt.Sprintf("store quarantines rose %d -> %d during the epoch", ep.baseQuar, quar)
	}
	if ep.cohortFails > 0 && ep.cohortEWMA > ep.baseline+gateMargin {
		return fmt.Sprintf("canary failure EWMA %.2f exceeds baseline %.2f+%.2f (%d of %d cohort builds failed)",
			ep.cohortEWMA, ep.baseline, gateMargin, ep.cohortFails, ep.cohortRuns)
	}
	return ""
}

// ---- persistence & recovery ----

// persistEpoch writes the epoch's durable record (codec v4).  A
// server without a store runs upgrades memory-only: still atomic
// in-process, just not crash-durable.
func (s *Server) persistEpoch(state uint8) error {
	s.cacheMu.RLock()
	st := s.store
	s.cacheMu.RUnlock()
	if st == nil {
		return nil
	}
	s.upMu.Lock()
	ep := s.epoch
	if ep == nil {
		s.upMu.Unlock()
		return nil
	}
	rec := &store.EpochRecord{
		ID:        ep.id,
		State:     state,
		CanaryPct: uint32(ep.canaryPct),
		Verdict:   ep.verdict,
	}
	for _, p := range ep.order {
		el := ep.libs[p]
		rec.Libs = append(rec.Libs, store.EpochLib{
			Path: p, OldSrc: el.oldSrc, NewSrc: el.newSrc,
			IsLib: el.isLib, HadPrior: el.hadPrior,
		})
	}
	s.upMu.Unlock()
	blob, err := store.EncodeEpoch(rec)
	if err != nil {
		return err
	}
	return st.Put(epochStoreKey, blob)
}

// deleteEpochRecord removes the durable epoch record (the commit /
// rollback "transaction done" mark).
func (s *Server) deleteEpochRecord() {
	s.cacheMu.RLock()
	st := s.store
	s.cacheMu.RUnlock()
	if st != nil {
		st.Delete(epochStoreKey)
	}
}

// recoverEpoch resolves an epoch record found at warm boot.  A record
// in the committing state is a durable intent whose apply may have
// been cut short: redo it (all staged sources validate before any
// installs, so the outcome is all-or-nothing).  Anything else is an
// epoch that never reached commit: roll it back by discarding the
// record — the namespace boots v1, exactly as if the epoch never
// happened.
func (s *Server) recoverEpoch(st *store.Store) {
	blob, ok, err := st.Get(epochStoreKey)
	if err != nil || !ok {
		return
	}
	rec, err := store.DecodeEpoch(blob)
	if err != nil {
		st.Quarantine(epochStoreKey)
		return
	}
	if rec.State == store.EpochCommitting {
		metas := make([]*mgraph.Meta, 0, len(rec.Libs))
		valid := true
		for _, l := range rec.Libs {
			m, err := parseMeta(l.Path, l.NewSrc, l.IsLib)
			if err != nil {
				valid = false
				break
			}
			metas = append(metas, m)
		}
		if valid {
			s.writeNS(func(v *nsVersion) {
				for _, m := range metas {
					v.entries[m.Path] = nsEntry{meta: m}
				}
			})
			st.Delete(epochStoreKey)
			s.stats.upgradesCommitted.Add(1)
			s.upMu.Lock()
			s.auditLocked(&upgradeEpoch{id: rec.ID, libs: epochLibsOf(rec)},
				fmt.Sprintf("epoch %s commit completed at warm boot (%d path(s))", rec.ID, len(rec.Libs)))
			s.upMu.Unlock()
			return
		}
	}
	st.Delete(epochStoreKey)
	s.stats.upgradesRolledBack.Add(1)
	s.lastAborted.Store(&refusal.UpgradeAbortedError{
		Epoch:   rec.ID,
		Verdict: "epoch interrupted by restart; rolled back at warm boot",
		Auto:    true,
	})
	s.upMu.Lock()
	s.auditLocked(&upgradeEpoch{id: rec.ID, libs: epochLibsOf(rec)},
		fmt.Sprintf("epoch %s rolled back at warm boot (interrupted before commit)", rec.ID))
	s.upMu.Unlock()
}

// epochLibsOf rebuilds the staged-path set of a persisted record, for
// audit filtering.
func epochLibsOf(rec *store.EpochRecord) map[string]epochLib {
	libs := make(map[string]epochLib, len(rec.Libs))
	for _, l := range rec.Libs {
		libs[l.Path] = epochLib{}
	}
	return libs
}

// ---- audit trail ----

// maxUpgradeAudit bounds the retained upgrade history.
const maxUpgradeAudit = 64

// auditLocked appends one upgrade event, tagged with the epoch's
// staged paths so Explain can attach relevant history to a symbol's
// binding report.  Caller holds upMu.
func (s *Server) auditLocked(ep *upgradeEpoch, line string) {
	paths := make(map[string]bool, len(ep.libs))
	for p := range ep.libs {
		paths[p] = true
	}
	s.upgradeLog = append(s.upgradeLog, upgradeEvent{line: line, paths: paths})
	if len(s.upgradeLog) > maxUpgradeAudit {
		s.upgradeLog = s.upgradeLog[len(s.upgradeLog)-maxUpgradeAudit:]
	}
}

// upgradeHistoryFor returns the audit lines relevant to any of the
// given definer paths (epoch-open events carry no paths yet and match
// nothing; stage/commit/rollback events carry their staged set).
func (s *Server) upgradeHistoryFor(definers map[string]bool) []string {
	s.upMu.Lock()
	defer s.upMu.Unlock()
	var out []string
	for _, ev := range s.upgradeLog {
		for p := range ev.paths {
			if definers[p] {
				out = append(out, ev.line)
				break
			}
		}
	}
	return out
}

// UpgradeAudit returns the full upgrade audit trail, newest last.
func (s *Server) UpgradeAudit() []string {
	s.upMu.Lock()
	defer s.upMu.Unlock()
	out := make([]string, len(s.upgradeLog))
	for i, ev := range s.upgradeLog {
		out[i] = ev.line
	}
	return out
}

// UpgradeStatsLine is the `upgrade:` state line of the daemon's stats
// report and of `omos upgrade --status`; the upgrade counters are
// Stats' `upgrades:` line.
func (s *Server) UpgradeStatsLine() string {
	st := s.UpgradeStatus()
	switch {
	case st.Active && st.RollingBack:
		return fmt.Sprintf("upgrade: epoch=%s rolling-back verdict=%q", st.Epoch, st.Verdict)
	case st.Active:
		return fmt.Sprintf("upgrade: epoch=%s canary=%d%% cohort=%d/%d ewma=%.2f baseline=%.2f libs=%s",
			st.Epoch, st.CanaryPct, st.CohortFails, st.CohortRuns,
			st.CohortEWMA, st.Baseline, strings.Join(st.Libs, ","))
	case st.LastAborted != "":
		return fmt.Sprintf("upgrade: idle last-aborted=%q", st.LastAborted)
	}
	return "upgrade: idle"
}
