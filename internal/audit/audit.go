// Package audit defines the structured violation type raised by the
// simulator's runtime invariant auditor (enabled via Scenario.Audit) and
// a small bounded recorder that aggregates violations into one error.
//
// The auditor cross-checks live engine state at sampler-aligned audit
// points: the packet-conservation ledger over pkt.Pool borrows, DES
// event-list sanity, radio dense-state coherence, and the AODV protocol
// invariants from Fehnker et al.'s process-algebra treatment of mesh
// routing (monotone own sequence numbers, two-node loop freedom,
// structural next-hop validity). A violation is a hard finding — the
// state it reports can only arise from a simulator bug, never from an
// unlucky scenario — so runs fail loudly through the same error path
// crash containment already surfaces.
package audit

import (
	"fmt"
	"strings"

	"clnlr/internal/des"
)

// Violation is one invariant breach observed at an audit point.
type Violation struct {
	// Invariant names the broken invariant, e.g. "pkt/double-free" or
	// "routing/seq-monotone".
	Invariant string
	// Node is the node the violation is attributed to, or -1 for
	// engine-global invariants (DES queue accounting, radio coherence).
	Node int
	// Time is the simulation time of the audit point that caught it.
	Time des.Time
	// Detail is a human-readable snapshot of the offending state.
	Detail string
}

// Error implements the error interface.
func (v Violation) Error() string {
	if v.Node < 0 {
		return fmt.Sprintf("audit: %s at t=%v: %s", v.Invariant, v.Time, v.Detail)
	}
	return fmt.Sprintf("audit: %s at node %d t=%v: %s", v.Invariant, v.Node, v.Time, v.Detail)
}

// Error aggregates every violation a run produced.
type Error struct {
	Violations []Violation
	// Truncated reports how many further violations were dropped once
	// the recorder's cap was reached.
	Truncated int
}

// Error implements the error interface.
func (e *Error) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "audit: %d invariant violation(s)", len(e.Violations)+e.Truncated)
	for i := range e.Violations {
		b.WriteString("\n  ")
		b.WriteString(e.Violations[i].Error())
	}
	if e.Truncated > 0 {
		fmt.Fprintf(&b, "\n  ... and %d more", e.Truncated)
	}
	return b.String()
}

// maxRecorded caps how many violations a Recorder keeps verbatim; one
// broken invariant often fires at every subsequent audit point, and the
// first few occurrences carry all the signal.
const maxRecorded = 32

// Recorder collects violations during a run. The zero value is ready to
// use; it is not safe for concurrent use (the auditor runs on the
// single-threaded DES loop).
type Recorder struct {
	violations []Violation
	truncated  int
}

// Record appends a violation, dropping (but counting) beyond the cap.
func (r *Recorder) Record(v Violation) {
	if len(r.violations) >= maxRecorded {
		r.truncated++
		return
	}
	r.violations = append(r.violations, v)
}

// Recordf builds and records a violation with a formatted detail string.
func (r *Recorder) Recordf(invariant string, node int, t des.Time, format string, args ...any) {
	r.Record(Violation{Invariant: invariant, Node: node, Time: t, Detail: fmt.Sprintf(format, args...)})
}

// Err returns the aggregated error, or nil when the run was clean.
func (r *Recorder) Err() error {
	if len(r.violations) == 0 {
		return nil
	}
	return &Error{Violations: r.violations, Truncated: r.truncated}
}
