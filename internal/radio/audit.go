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
//   - each in-flight transmission names itself as its source's, with
//     parallel touched/rxPower and in-range receivers;
//   - per receiver, nlive equals the number of in-flight transmissions
//     that touched it and energy equals the sum of their powers there, to
//     float tolerance: the incremental add/subtract bookkeeping drifts by
//     ulps of the strongest arrival that passed through it (a co-located
//     transmitter leaves ~3e-17 W behind), never by a term, and no term
//     is smaller than minTrackW;
//   - the carrier state is current: busy == (energy >= CsThreshW), and
//     the record's threshold copy matches rfp;
//   - the locked-on arrival (cur) references an in-flight frame;
//   - every audible set at the current epoch is ID-sorted, self-free,
//     in range, and has parallel member slices.
//
// Holds at event boundaries (not inside a listener callback). Read-only
// apart from the auditLive/auditSum scratch, so a tick allocates nothing;
// returns the first violation found, or nil.
func (m *Medium) AuditCoherence() error {
	n := len(m.radios)
	for _, l := range []struct {
		name string
		len  int
	}{
		{"rfp", len(m.rfp)}, {"chans", len(m.chans)}, {"downs", len(m.downs)},
		{"rx", len(m.rx)}, {"txOf", len(m.txOf)},
		{"listeners", len(m.listeners)}, {"aud", len(m.aud)},
	} {
		if l.len != n {
			return fmt.Errorf("radio: audit: %d radios but len(%s)=%d", n, l.name, l.len)
		}
	}

	if cap(m.auditLive) < n {
		m.auditLive, m.auditSum = make([]int32, n), make([]float64, n)
	}
	live, sum := m.auditLive[:n], m.auditSum[:n]
	clear(live)
	clear(sum)
	inFlight := 0
	for id := 0; id < n; id++ {
		t := m.txOf[id]
		if m.rx[id].txing != (t != nil) {
			return fmt.Errorf("radio: audit: radio %d txing=%v but txOf nil=%v", id, m.rx[id].txing, t == nil)
		}
		if t == nil {
			continue
		}
		inFlight++
		if int(t.src) != id {
			return fmt.Errorf("radio: audit: radio %d in-flight transmission claims src %d", id, t.src)
		}
		if len(t.touched) != len(t.rxPower) {
			return fmt.Errorf("radio: audit: radio %d transmission slices not parallel (%d/%d)",
				id, len(t.touched), len(t.rxPower))
		}
		for i, rx := range t.touched {
			if rx < 0 || int(rx) >= n {
				return fmt.Errorf("radio: audit: radio %d touches out-of-range receiver %d", id, rx)
			}
			live[rx]++
			sum[rx] += t.rxPower[i]
		}
	}
	if inFlight != m.txInFlight {
		return fmt.Errorf("radio: audit: txInFlight=%d but %d transmissions in flight", m.txInFlight, inFlight)
	}

	for rx := 0; rx < n; rx++ {
		s := &m.rx[rx]
		if s.nlive != live[rx] {
			return fmt.Errorf("radio: audit: receiver %d nlive=%d but %d in-flight transmissions touch it", rx, s.nlive, live[rx])
		}
		if diff := math.Abs(s.energy - sum[rx]); diff > 1e-6*sum[rx]+0.1*m.minTrackW {
			return fmt.Errorf("radio: audit: receiver %d energy %g but live arrivals sum to %g", rx, s.energy, sum[rx])
		}
		if s.csThresh != m.rfp[rx].CsThreshW {
			return fmt.Errorf("radio: audit: receiver %d csThresh %g but rfp says %g", rx, s.csThresh, m.rfp[rx].CsThreshW)
		}
		if s.busy != (s.energy >= s.csThresh) {
			return fmt.Errorf("radio: audit: receiver %d busy=%v but energy %g vs threshold %g", rx, s.busy, s.energy, s.csThresh)
		}
		if cur := s.cur.t; cur != nil {
			src := int(cur.src)
			if src < 0 || src >= n || m.txOf[src] != cur {
				return fmt.Errorf("radio: audit: receiver %d locked onto a transmission not in flight", rx)
			}
		}
	}

	for id := 0; id < n; id++ {
		a := &m.aud[id]
		if a.epoch != m.audEpoch {
			continue // stale or never built: rebuilt lazily, contents unused
		}
		if len(a.rxID) != len(a.power) || len(a.rxID) != len(a.refOK) {
			return fmt.Errorf("radio: audit: radio %d audible set slices not parallel (%d/%d/%d)",
				id, len(a.rxID), len(a.power), len(a.refOK))
		}
		prev := int32(-1)
		for _, rid := range a.rxID {
			if rid < 0 || int(rid) >= n {
				return fmt.Errorf("radio: audit: radio %d audible set member %d out of range", id, rid)
			}
			if int(rid) == id {
				return fmt.Errorf("radio: audit: radio %d audible set contains itself", id)
			}
			if rid <= prev {
				return fmt.Errorf("radio: audit: radio %d audible set not strictly ID-sorted at %d", id, rid)
			}
			prev = rid
		}
	}
	return nil
}
