// Package refusal declares the typed refusals an OMOS daemon answers
// with: a request shed by an admission gate, a namespace mutation that
// would silently re-bind a live program, a pinned image whose
// libraries changed under it, and an operation on a rolled-back
// upgrade.  Each is declared once.  The server returns these values,
// the transport carries them as themselves (one kind byte, then the
// fields), and the client hands the caller an equal value of the same
// type — so a caller matches a refusal with errors.As whether it holds
// an embedded server or a connection to a daemon.
//
// The package is a leaf (it imports only lebin) so that the core
// server does not depend on the transport to name its refusals.
package refusal

import (
	"fmt"
	"time"

	"omos/internal/lebin"
)

// Error is one of this package's refusal types.  The unexported method
// keeps the set closed: a refusal's fields are wire layout, so a new
// refusal or a new field is a new protocol version.
type Error interface {
	error
	appendTo(w *lebin.Writer)
}

// Kind bytes of the wire form.  Zero is no refusal: it never decodes.
const (
	kindOverload uint8 = iota + 1
	kindRebind
	kindPinViolation
	kindUpgradeAborted
)

// Append writes e's wire form to w: its kind byte, then its fields in
// declaration order.
func Append(w *lebin.Writer, e Error) { e.appendTo(w) }

// Read decodes one refusal written by Append.  An unknown kind fails r
// (and Read returns nil): the set of refusals is the protocol's.
func Read(r *lebin.Reader) Error {
	switch k := r.U8(); k {
	case kindOverload:
		return &OverloadError{Reason: r.Str(), RetryAfter: time.Duration(r.U64())}
	case kindRebind:
		return &RebindError{Mutation: r.Str(), Path: r.Str(), Program: r.Str(), Symbol: r.Str(), Definer: r.Str()}
	case kindPinViolation:
		return &PinViolationError{Image: r.Str(), Lib: r.Str(), Field: r.Str(), Want: r.Str(), Got: r.Str()}
	case kindUpgradeAborted:
		return &UpgradeAbortedError{Epoch: r.Str(), Verdict: r.Str(), Auto: r.Bool()}
	default:
		r.Fail(fmt.Errorf("unknown refusal kind %d", k))
		return nil
	}
}

// OverloadError reports a request shed before any work was done — by
// a server's admission gate, or by a client's open circuit breaker —
// so it is always safe to retry, even for a non-idempotent operation,
// after RetryAfter.
type OverloadError struct {
	// Reason is which bound was hit ("queue full", "breaker open").
	Reason string
	// RetryAfter is the suggested backoff before retrying.
	RetryAfter time.Duration
}

func (e *OverloadError) Error() string {
	return fmt.Sprintf("overloaded (%s), retry after %v", e.Reason, e.RetryAfter)
}

func (e *OverloadError) appendTo(w *lebin.Writer) {
	w.U8(kindOverload)
	w.Str(e.Reason)
	w.U64(uint64(e.RetryAfter))
}

// RebindError rejects a namespace mutation that would silently re-bind
// a live program's symbol to a different definer.  Repeat the mutation
// with the allow flag (Request.AllowRebind, `omos -allow-rebind`) to
// make it explicit.
type RebindError struct {
	Mutation string // "define", "remove", "mount", "unmount"
	Path     string // the path or prefix being mutated
	Program  string // an image whose resolution the mutation would change
	Symbol   string // one symbol bound through the mutated path
	Definer  string // its current definer
}

func (e *RebindError) Error() string {
	return fmt.Sprintf("rebind blocked: %s %s would re-bind %q of %s (currently defined by %s); pass allow-rebind to proceed",
		e.Mutation, e.Path, e.Symbol, e.Program, e.Definer)
}

func (e *RebindError) appendTo(w *lebin.Writer) {
	w.U8(kindRebind)
	w.Str(e.Mutation)
	w.Str(e.Path)
	w.Str(e.Program)
	w.Str(e.Symbol)
	w.Str(e.Definer)
}

// PinViolationError rejects a pinned image whose library identities no
// longer match what it was linked against — a definer swap or a
// tampered store blob caught by the pin check.  The image is
// quarantined; retrying rebuilds and re-pins it from source.
type PinViolationError struct {
	Image string // the pinned image
	Lib   string // the library whose identity mismatched
	Field string // which identity: "content-key", "checksum", "lib-key", "libs", "injected"
	Want  string
	Got   string
}

func (e *PinViolationError) Error() string {
	return fmt.Sprintf("pin violation: %s library %s %s mismatch (pinned %s, found %s); image quarantined, retry rebuilds",
		e.Image, e.Lib, e.Field, e.Want, e.Got)
}

func (e *PinViolationError) appendTo(w *lebin.Writer) {
	w.U8(kindPinViolation)
	w.Str(e.Image)
	w.Str(e.Lib)
	w.Str(e.Field)
	w.Str(e.Want)
	w.Str(e.Got)
}

// UpgradeAbortedError is the verdict of a rolled-back live-upgrade
// epoch: which epoch, why, and whether the health gate (rather than an
// operator) pulled the trigger.  The namespace is back on the
// pre-upgrade version; a fresh epoch is the way forward.
type UpgradeAbortedError struct {
	Epoch   string
	Verdict string
	Auto    bool
}

func (e *UpgradeAbortedError) Error() string {
	how := "rolled back"
	if e.Auto {
		how = "automatically rolled back by the health gate"
	}
	return fmt.Sprintf("upgrade %s %s: %s", e.Epoch, how, e.Verdict)
}

func (e *UpgradeAbortedError) appendTo(w *lebin.Writer) {
	w.U8(kindUpgradeAborted)
	w.Str(e.Epoch)
	w.Str(e.Verdict)
	w.Bool(e.Auto)
}
