package radio

import (
	"fmt"
	"math"
)

// AuditCoherence cross-checks the Medium's dense hot state — the radio
// leg of the runtime auditor (Scenario.Audit). It verifies:
//
//   - every per-radio dense slice has one entry per attached radio;
//   - txing agrees with txOf[id], and the in-flight count matches;
//   - each in-flight transmission names itself as its source's; its touched
//     list is its source's audible-set storage (same first element and
//     length), strictly ID-sorted, self-free and in range; its skipped
//     list is strictly ID-sorted and a subset of touched;
//   - per receiver, nlive equals the number of in-flight transmissions that
//     touched and did not skip it (so skipping a counted radio shows here)
//     and energy equals the sum of their powers there, to float tolerance: the incremental add/subtract bookkeeping drifts by
//     ulps of the strongest arrival that passed through it (a co-located
//     transmitter leaves ~3e-17 W behind), never by a term, and no term
//     is smaller than minTrackW;
//   - the carrier state is current: busy == (energy >= CsThreshW), and
//     the record's threshold copy matches rfp;
//   - the state clock is sane: the open interval (its kind is derived
//     from txing/busy/down, never stored, so cannot disagree with them)
//     began no later than now, and busy-carrier + transmit time, closed
//     and open, fit in the time since the clocks started;
//   - the locked-on arrival (cur) references an in-flight frame;
//   - every audible set at the current epoch is strictly ID-sorted,
//     self-free and in range.
//
// A set only changes in buildAudible, which stamps it with a build number,
// so unless full is set each build is checked once: a set whose stamp was
// checked by an earlier call is skipped, and sets reports how many were
// checked. full checks every current set (a backstop for any write that
// bypassed buildAudible). Every in-flight frame's touched and skipped
// lists are checked on every call.
//
// Holds at event boundaries (not inside a listener callback). Read-only
// apart from the audit scratch and build stamps, so a call allocates
// nothing once they are sized; returns the first violation found, or nil.
func (m *Medium) AuditCoherence(full bool) (sets int, err error) {
	n := len(m.pos)
	for _, l := range []struct {
		name string
		len  int
	}{
		{"rfp", len(m.rfp)}, {"rx", len(m.rx)}, {"txAcc", len(m.txAcc)}, {"txOf", len(m.txOf)},
		{"listeners", len(m.listeners)}, {"aud", len(m.aud)},
	} {
		if l.len != n {
			return 0, fmt.Errorf("radio: audit: %d radios but len(%s)=%d", n, l.name, l.len)
		}
	}

	if cap(m.auditLive) < n {
		m.auditLive, m.auditSum = make([]int32, n), make([]float64, n)
		m.auditBuild = append(m.auditBuild, make([]uint64, n-len(m.auditBuild))...)
	}
	live, sum := m.auditLive[:n], m.auditSum[:n]
	clear(live)
	clear(sum)
	inFlight := 0
	now := m.sim.Now()
	for id := 0; id < n; id++ {
		t := m.txOf[id]
		if m.rx[id].txing != (t != nil) {
			return 0, fmt.Errorf("radio: audit: radio %d txing=%v but txOf nil=%v", id, m.rx[id].txing, t == nil)
		}
		if t == nil {
			continue
		}
		inFlight++
		if int(t.src) != id {
			return 0, fmt.Errorf("radio: audit: radio %d in-flight transmission claims src %d", id, t.src)
		}
		if hs := m.aud[id].heard; len(t.touched) != len(hs) || (len(hs) > 0 && &t.touched[0] != &hs[0]) {
			return 0, fmt.Errorf("radio: audit: radio %d touched list is not its audible set's storage", id)
		}
		if err := auditHeard(id, "touched list", t.touched, n); err != nil {
			return 0, err
		}
		skipped := t.skipped
		for _, h := range t.touched {
			if len(skipped) > 0 && skipped[0] == h.rx {
				skipped = skipped[1:]
				continue
			}
			live[h.rx]++
			sum[h.rx] += h.power
		}
		if len(skipped) > 0 { // the merge consumes any sorted subset of touched
			return 0, fmt.Errorf("radio: audit: radio %d skipped list entry %d unsorted or not in touched", id, skipped[0])
		}
	}
	if inFlight != m.txInFlight {
		return 0, fmt.Errorf("radio: audit: txInFlight=%d but %d transmissions in flight", m.txInFlight, inFlight)
	}

	for rx := 0; rx < n; rx++ {
		s := &m.rx[rx]
		if s.nlive != live[rx] {
			return 0, fmt.Errorf("radio: audit: receiver %d nlive=%d but %d in-flight transmissions touch it", rx, s.nlive, live[rx])
		}
		if diff := math.Abs(s.energy - sum[rx]); diff > 1e-6*sum[rx]+0.1*m.minTrackW {
			return 0, fmt.Errorf("radio: audit: receiver %d energy %g but live arrivals sum to %g", rx, s.energy, sum[rx])
		}
		if s.csThresh != m.rfp[rx].CsThreshW {
			return 0, fmt.Errorf("radio: audit: receiver %d csThresh %g but rfp says %g", rx, s.csThresh, m.rfp[rx].CsThreshW)
		}
		if s.busy != (s.energy >= s.csThresh) {
			return 0, fmt.Errorf("radio: audit: receiver %d busy=%v but energy %g vs threshold %g", rx, s.busy, s.energy, s.csThresh)
		}
		if open := s.txing || (s.busy && !s.down); open && s.since > now {
			return 0, fmt.Errorf("radio: audit: receiver %d open clock interval begins at %v, after now %v", rx, s.since, now)
		}
		if idle, busy, tx := m.stateTimes(rx); idle < 0 || busy < 0 || tx < 0 {
			return 0, fmt.Errorf("radio: audit: receiver %d clock reads idle %v, busy %v, transmit %v", rx, idle, busy, tx)
		}
		if cur := s.cur.t; cur != nil {
			src := int(cur.src)
			if src < 0 || src >= n || m.txOf[src] != cur {
				return 0, fmt.Errorf("radio: audit: receiver %d locked onto a transmission not in flight", rx)
			}
		}
	}

	for id := 0; id < n; id++ {
		a := &m.aud[id]
		if a.epoch != m.audEpoch {
			continue // stale or never built: rebuilt lazily, contents unused
		}
		if !full && a.build == m.auditBuild[id] {
			continue // this build was checked at an earlier call
		}
		if err := auditHeard(id, "audible set", a.heard, n); err != nil {
			return sets, err
		}
		m.auditBuild[id] = a.build
		sets++
	}
	return sets, nil
}

// auditHeard checks that one of radio id's receiver lists (what names it)
// is strictly ID-sorted, in range for n radios and free of id itself.
func auditHeard(id int, what string, hs []heard, n int) error {
	prev := int32(-1)
	for _, h := range hs {
		switch {
		case h.rx < 0 || int(h.rx) >= n:
			return fmt.Errorf("radio: audit: radio %d %s member %d out of range", id, what, h.rx)
		case int(h.rx) == id:
			return fmt.Errorf("radio: audit: radio %d %s contains itself", id, what)
		case h.rx <= prev:
			return fmt.Errorf("radio: audit: radio %d %s not strictly ID-sorted at %d", id, what, h.rx)
		}
		prev = h.rx
	}
	return nil
}
