package ipc

import (
	"errors"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"omos/internal/refusal"
)

// overloadBackend sheds the first N Run calls with a retry-after
// hint, then serves normally.
type overloadBackend struct {
	*fakeBackend
	shedLeft atomic.Int64
	hint     time.Duration
	runs     atomic.Int64
}

func (b *overloadBackend) Run(name string, args []string, boot bool) (RunOutcome, error) {
	if b.shedLeft.Add(-1) >= 0 {
		return RunOutcome{}, &refusal.OverloadError{Reason: "queue full", RetryAfter: b.hint}
	}
	b.runs.Add(1)
	return b.fakeBackend.Run(name, args, boot)
}

func startOverloadServer(t *testing.T, shed int64, hint time.Duration) (*Client, *overloadBackend) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	b := &overloadBackend{fakeBackend: newFakeBackend(), hint: hint}
	b.shedLeft.Store(shed)
	go Serve(l, b)
	t.Cleanup(func() { l.Close() })
	c, err := DialWith(l.Addr().String(), Options{Retries: 3, Backoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c, b
}

// TestOverloadRetriesWithHint: a shed travels the wire as a typed
// overload with the server's hint, and the client retries past it —
// even for non-idempotent Run, because the shed happened before any
// work.
func TestOverloadRetriesWithHint(t *testing.T) {
	c, b := startOverloadServer(t, 2, 2*time.Millisecond)
	start := time.Now()
	resp, err := c.Call(&Request{Op: OpRun, Path: "/bin/x"})
	if err != nil {
		t.Fatalf("call after sheds: %v", err)
	}
	if resp.ExitCode != 7 {
		t.Fatalf("exit = %d, want 7", resp.ExitCode)
	}
	if b.runs.Load() != 1 {
		t.Fatalf("backend ran %d times, want exactly 1", b.runs.Load())
	}
	// Two sheds → two holds, each at least the server hint.
	if elapsed := time.Since(start); elapsed < 2*b.hint {
		t.Fatalf("retried too fast (%v < 2×%v hint)", elapsed, b.hint)
	}
}

// TestOverloadExhaustedIsTyped: when the retry budget runs out the
// caller gets a *refusal.OverloadError that carries a backoff.
func TestOverloadExhaustedIsTyped(t *testing.T) {
	c, _ := startOverloadServer(t, 1_000_000, time.Millisecond)
	_, err := c.Call(&Request{Op: OpRun, Path: "/bin/x"})
	var oe *refusal.OverloadError
	if !errors.As(err, &oe) || oe.RetryAfter <= 0 {
		t.Fatalf("err = %v, want *refusal.OverloadError with positive RetryAfter", err)
	}
}

// TestBreakerFailsFastThenRecovers: after the budget is exhausted the
// breaker is open — the next call fails fast without a round trip —
// and once the hold expires a probe closes it on success.
func TestBreakerFailsFastThenRecovers(t *testing.T) {
	c, b := startOverloadServer(t, 5, time.Millisecond)
	var oe *refusal.OverloadError
	if _, err := c.Call(&Request{Op: OpRun, Path: "/bin/x"}); !errors.As(err, &oe) {
		t.Fatalf("err = %v, want *refusal.OverloadError", err)
	}
	// Breaker open: the next call fails fast without wire traffic — a
	// Ping that reached the server would have succeeded.
	if rem := time.Until(c.brOpenUntil); rem <= 0 {
		t.Fatalf("breaker not open after exhausted retries (rem %v)", rem)
	}
	_, err := c.Call(&Request{Op: OpPing})
	if !errors.As(err, &oe) || oe.Reason != "breaker open" {
		t.Fatalf("fail-fast err = %v, want the breaker's *refusal.OverloadError", err)
	}

	// Let the hold expire and the server recover; the probe succeeds
	// and closes the breaker.
	b.shedLeft.Store(0)
	deadline := time.Now().Add(5 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatal("breaker never closed after server recovered")
		}
		time.Sleep(time.Until(c.brOpenUntil) + time.Millisecond)
		if _, err := c.Call(&Request{Op: OpPing}); err == nil {
			break
		}
	}
	if c.brHold != 0 {
		t.Fatalf("brHold = %v after success, want 0", c.brHold)
	}
	if _, err := c.Call(&Request{Op: OpPing}); err != nil {
		t.Fatalf("post-recovery call: %v", err)
	}
}

// TestJitteredBackoffSpreads: two sequences of transport-retry sleeps
// are not identical (the jitter satellite) while staying within the
// [d/2, 3d/2) envelope.
func TestJitteredBackoffSpreads(t *testing.T) {
	c := &Client{}
	const d = 40 * time.Millisecond
	varied := false
	prev := time.Duration(-1)
	for i := 0; i < 32; i++ {
		j := c.jitter(d)
		if j < d/2 || j >= d+d/2 {
			t.Fatalf("jitter(%v) = %v, outside [%v, %v)", d, j, d/2, d+d/2)
		}
		if prev >= 0 && j != prev {
			varied = true
		}
		prev = j
	}
	if !varied {
		t.Fatal("32 jittered backoffs were all identical")
	}
	if c.jitter(0) != 0 {
		t.Fatal("jitter(0) != 0")
	}
}
