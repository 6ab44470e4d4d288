package server

import (
	"context"
	"fmt"
	"strconv"
	"strings"

	"omos/internal/fault"
	"omos/internal/mgraph"
	"omos/internal/store"
)

// This file is the live-upgrade engine: the transactional path for
// redefining libraries while the daemon serves traffic.
//
// An upgrade opens an *epoch*.  New definitions are staged beside the
// namespace, not in it: a deterministic fraction of instantiations
// (the canary cohort) evaluates against the staged view and builds v2
// images through the ordinary cache/rebase pipeline, while everything
// else — and every process already running — keeps resolving v1.  A
// health gate watches the cohort (build failures against the
// pre-upgrade EWMA baseline, pin violations, quarantine events) and on
// regression rolls the epoch back automatically: staged definitions
// are discarded, the pre-epoch binding tables are restored, the
// cohort's images are released, and a typed *UpgradeAbortedError
// carries the verdict.  Commit is write-ahead: the intent is made
// durable in the store (codec v4) before the staged definitions are
// applied, so a daemon killed mid-commit warm-restarts into either the
// fully-committed or the fully-rolled-back namespace — never a torn
// one.
//
// The epoch itself is the explicit rebind allow: every definition it
// applies at commit flows through the PR 8 rebind guard with the
// allow flag carried by the epoch, so a multi-library upgrade can
// never be half-guarded by one call omitting the flag.

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

// UpgradeAbortedError is the typed verdict of a rolled-back epoch:
// what aborted, why, and whether the health gate (rather than an
// operator) pulled the trigger.
type UpgradeAbortedError struct {
	Epoch   string
	Verdict string
	Auto    bool
}

// Error implements error.
func (e *UpgradeAbortedError) Error() string {
	how := "rolled back"
	if e.Auto {
		how = "automatically rolled back by the health gate"
	}
	return fmt.Sprintf("server: upgrade %s %s: %s", e.Epoch, how, e.Verdict)
}

// UpgradeDetail exposes the fields structurally, so the ipc layer can
// transport the abort without importing this package.
func (e *UpgradeAbortedError) UpgradeDetail() (epoch, verdict string, auto bool) {
	return e.Epoch, e.Verdict, e.Auto
}

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

	// savedBindings is the pre-epoch binding-table snapshot restored
	// wholesale at rollback (canary program builds overwrite tables,
	// since a program's resolution identity ignores library content).
	savedBindings map[string]*BindingTable

	// Health-gate state: the pre-upgrade baseline and the cohort's
	// running verdict.
	baseline    float64
	basePinViol uint64
	baseQuar    uint64
	cohortEWMA  float64
	cohortRuns  uint64
	cohortFails uint64

	// cohortProgs are the top-level names routed to the v2 cohort —
	// the images rollback must release.
	cohortProgs map[string]bool

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

// ---- cohort threading ----

type canaryCtxKey struct{}

// withCanary marks a context as belonging to the canary (v2) cohort.
func withCanary(ctx context.Context) context.Context {
	return context.WithValue(ctx, canaryCtxKey{}, true)
}

// canaryFrom reports whether the context carries cohort membership.
func canaryFrom(ctx context.Context) bool {
	v, _ := ctx.Value(canaryCtxKey{}).(bool)
	return v
}

// ectx derives the evaluation context for a request: cohort membership
// travels in the context.Context through the library fan-out.
func (s *Server) ectx(ctx context.Context) evalCtx {
	return evalCtx{s: s, v2: canaryFrom(ctx)}
}

// canaryPick decides, deterministically, whether a top-level
// instantiation joins the canary cohort: the same program under the
// same epoch always lands on the same side, so a client's retries
// converge instead of flapping between versions.
func (s *Server) canaryPick(name string, meta *mgraph.Meta) bool {
	s.upMu.Lock()
	ep := s.epoch
	if ep == nil || ep.rollingBack || ep.canaryPct <= 0 {
		s.upMu.Unlock()
		return false
	}
	pct, id := ep.canaryPct, ep.id
	s.upMu.Unlock()
	if pct < 100 {
		// 32 hash bits: the residues of 2^32 mod 100 are uneven by
		// less than one part in 4·10^7 (one byte made a 10% canary 11.7%).
		h := digestStr("canary", id, meta.SrcHash)
		v, _ := strconv.ParseUint(h[:8], 16, 64)
		if int(v%100) >= pct {
			return false
		}
	}
	s.upMu.Lock()
	defer s.upMu.Unlock()
	if s.epoch != ep || ep.rollingBack {
		return false
	}
	ep.cohortProgs[cleanPath(name)] = true
	return true
}

// stagedEntry resolves a path against the active epoch's staged
// definitions (the view canary-cohort evaluations see).
func (s *Server) stagedEntry(p string) (nsEntry, bool) {
	p = cleanPath(p)
	s.upMu.Lock()
	defer s.upMu.Unlock()
	if s.epoch == nil || s.epoch.rollingBack {
		return nsEntry{}, false
	}
	el, ok := s.epoch.libs[p]
	if !ok {
		return nsEntry{}, false
	}
	return el.entry, true
}

// optionalUnavailable reports whether an optional import of p must
// degrade to its stub because p is mid-rollback: a version about to
// disappear must not earn new bindings.
func (s *Server) optionalUnavailable(p string, v2 bool) bool {
	p = cleanPath(p)
	s.upMu.Lock()
	defer s.upMu.Unlock()
	ep := s.epoch
	if ep == nil || !ep.rollingBack {
		return false
	}
	_, staged := ep.libs[p]
	return staged
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
	// Snapshot the binding tables before the epoch exists: a table
	// recorded in the gap re-searches after a rollback, which is only
	// slower, never wrong.
	s.bindMu.RLock()
	saved := make(map[string]*BindingTable, len(s.bindings))
	for k, v := range s.bindings {
		saved[k] = v
	}
	s.bindMu.RUnlock()
	s.upMu.Lock()
	if s.epoch != nil {
		id := s.epoch.id
		s.upMu.Unlock()
		return "", fmt.Errorf("server: upgrade %s already in progress", id)
	}
	ep := &upgradeEpoch{
		id:            fmt.Sprintf("up%d.%d", s.epochSeq.Add(1), s.hashGen.Load()),
		canaryPct:     canaryPct,
		libs:          map[string]epochLib{},
		cohortProgs:   map[string]bool{},
		savedBindings: saved,
		baseline:      s.baseFailEWMA,
		basePinViol:   s.stats.pinViolations.Load(),
		baseQuar:      quar,
	}
	s.epoch = ep
	s.lastAborted.Store(nil)
	s.auditLocked(ep, fmt.Sprintf("epoch %s opened (canary %d%%)", ep.id, canaryPct))
	s.upMu.Unlock()
	s.stats.upgradesStarted.Add(1)
	s.invalidateHashes()
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
	s.nsMu.RLock()
	prior, hadPrior := s.ns[pc]
	s.nsMu.RUnlock()
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
	s.upMu.Unlock()
	// Flush cohort-side memos: staged content changed under the canary
	// generation.
	s.invalidateHashes()
	if err := s.persistEpoch(store.EpochActive); err != nil {
		return fmt.Errorf("server: stage %s: persisting epoch: %w", pc, err)
	}
	return nil
}

// UpgradeCommit applies the epoch: the commit intent is made durable
// first (write-ahead), then every staged definition is installed
// through the rebind guard with the epoch's allow — so a crash in
// between is redone at the next warm boot, never left torn.  The
// canary cohort's v2 images become cache hits for everyone: their
// content hashes are exactly the committed namespace's.
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
	order := append([]string(nil), ep.order...)
	libs := make(map[string]epochLib, len(ep.libs))
	for k, v := range ep.libs {
		libs[k] = v
	}
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
	for _, p := range order {
		el := libs[p]
		// The epoch carries the allow: every conflicting rebind is
		// counted as allowed, none can slip through half-guarded.
		if err := s.define(p, el.newSrc, el.isLib, true); err != nil {
			return fmt.Errorf("server: upgrade commit %s: applying %s: %w", ep.id, p, err)
		}
	}
	s.upMu.Lock()
	if s.epoch == ep {
		s.epoch = nil
	}
	s.auditLocked(ep, fmt.Sprintf("epoch %s committed %d path(s) (canary %d%%, %d cohort builds, %d failed)",
		ep.id, len(order), ep.canaryPct, runs, fails))
	s.upMu.Unlock()
	s.deleteEpochRecord()
	s.invalidateHashes()
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
	} else {
		reason = ep.verdict
	}
	s.upMu.Unlock()
	return s.rollbackEpoch(ep, reason, false)
}

// rollbackEpoch unwinds an epoch: pre-epoch binding tables are
// restored, the cohort's v2 images (and the staged libraries' cached
// instances) are released, the durable record is deleted, and the
// typed abort is retained for the next status/stage/commit call.
func (s *Server) rollbackEpoch(ep *upgradeEpoch, verdict string, auto bool) error {
	if err := s.faults.Fire(fault.SiteUpgradeRollback); err != nil {
		return fmt.Errorf("server: rollback of %s: %w", ep.id, err)
	}
	// Restore the pre-epoch resolution state: any table a canary build
	// overwrote goes back to naming the v1 definers.  A path removed
	// while the epoch was open stays forgotten (see dropBindingsOf) —
	// its snapshot table would be a ghost Explain row and a ghost rebind
	// conflict.  Lock order bindMu → nsMu, as in rebindConflict.
	s.bindMu.Lock()
	s.bindings = make(map[string]*BindingTable, len(ep.savedBindings))
	s.nsMu.RLock()
	for k, v := range ep.savedBindings {
		if _, live := s.ns[v.Image]; live {
			s.bindings[k] = v
		}
	}
	s.nsMu.RUnlock()
	s.bindMu.Unlock()
	// Release every image the epoch built or could have built against
	// staged content: the staged paths' instances and the cohort's
	// programs.  Running processes keep their mapped frames through
	// their own references; the cache entries and store blobs go.
	s.upMu.Lock()
	victims := make(map[string]bool, len(ep.libs)+len(ep.cohortProgs))
	for p := range ep.libs {
		victims[p] = true
	}
	for p := range ep.cohortProgs {
		victims[p] = true
	}
	s.upMu.Unlock()
	for p := range victims {
		s.Evict(p)
	}
	s.upMu.Lock()
	if s.epoch == ep {
		s.epoch = nil
	}
	s.auditLocked(ep, fmt.Sprintf("epoch %s rolled back: %s", ep.id, verdict))
	s.upMu.Unlock()
	s.deleteEpochRecord()
	s.invalidateHashes()
	s.stats.upgradesRolledBack.Add(1)
	s.lastAborted.Store(&UpgradeAbortedError{Epoch: ep.id, Verdict: verdict, Auto: auto})
	return nil
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
func (s *Server) LastUpgradeAborted() *UpgradeAbortedError {
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
			s.nsMu.Lock()
			for _, m := range metas {
				s.ns[m.Path] = nsEntry{meta: m}
			}
			s.nsMu.Unlock()
			s.invalidateHashes()
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
	s.lastAborted.Store(&UpgradeAbortedError{
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

// upgradeLine renders the one-line status omosd stats and OpHealth
// carry.
func upgradeLine(st UpgradeStatusInfo, started, committed, rolledBack, canary, stubs uint64) string {
	state := "idle"
	switch {
	case st.Active && st.RollingBack:
		state = fmt.Sprintf("epoch=%s rolling-back verdict=%q", st.Epoch, st.Verdict)
	case st.Active:
		state = fmt.Sprintf("epoch=%s canary=%d%% cohort=%d/%d ewma=%.2f baseline=%.2f libs=%s",
			st.Epoch, st.CanaryPct, st.CohortFails, st.CohortRuns,
			st.CohortEWMA, st.Baseline, strings.Join(st.Libs, ","))
	case st.LastAborted != "":
		state = fmt.Sprintf("idle last-aborted=%q", st.LastAborted)
	}
	return fmt.Sprintf("upgrade: %s started=%d committed=%d rolled-back=%d canary-instantiations=%d optional-stubs=%d",
		state, started, committed, rolledBack, canary, stubs)
}

// UpgradeStatsLine is the `upgrade:` line of the daemon's stats
// report.
func (s *Server) UpgradeStatsLine() string {
	return upgradeLine(s.UpgradeStatus(),
		s.stats.upgradesStarted.Load(),
		s.stats.upgradesCommitted.Load(),
		s.stats.upgradesRolledBack.Load(),
		s.stats.canaryInstantiations.Load(),
		s.stats.optionalStubsServed.Load())
}
