package mac

import "clnlr/internal/pkt"

// arfState tracks ARF link adaptation toward one neighbour. The zero
// value means "no contact yet"; arfFor initialises it on first use.
type arfState struct {
	idx  int // index into Config.RateLadder
	succ int // consecutive successes
	fail int // consecutive failures
	used bool
}

// arfFor returns (lazily initialising) the adaptation state for a
// neighbour, starting at the configured reference rate. The returned
// pointer aliases the dense per-peer slice and is only valid until the
// next arfFor call (growth may move the backing array).
func (m *Mac) arfFor(dst pkt.NodeID) *arfState {
	i := int(dst)
	if i >= len(m.arf) {
		m.arf = append(m.arf, make([]arfState, i+1-len(m.arf))...)
	}
	st := &m.arf[i]
	if !st.used {
		st.idx = m.referenceRateIdx()
		st.used = true
	}
	return st
}

// referenceRateIdx locates the configured DataRateBps in the ladder (the
// highest ladder entry not exceeding it).
func (m *Mac) referenceRateIdx() int {
	idx := 0
	for i, r := range m.cfg.RateLadder {
		if r <= m.cfg.DataRateBps {
			idx = i
		}
	}
	return idx
}

// unicastRate returns the bit rate to use toward dst.
func (m *Mac) unicastRate(dst pkt.NodeID) int64 {
	if !m.cfg.AutoRate {
		return m.cfg.DataRateBps
	}
	return m.cfg.RateLadder[m.arfFor(dst).idx]
}

// snrScale converts a rate into the SINR requirement relative to the
// reference rate; rates at or below the reference keep the calibrated
// behaviour (scale 1).
func (m *Mac) snrScale(rate int64) float64 {
	s := float64(rate) / float64(m.cfg.DataRateBps)
	if s < 1 {
		return 1
	}
	return s
}

// arfSuccess records an acknowledged unicast transmission.
func (m *Mac) arfSuccess(dst pkt.NodeID) {
	if !m.cfg.AutoRate {
		return
	}
	st := m.arfFor(dst)
	st.fail = 0
	st.succ++
	if st.succ >= m.cfg.ArfSuccessUp && st.idx < len(m.cfg.RateLadder)-1 {
		st.idx++
		st.succ = 0
	}
}

// arfFailure records a failed transmission attempt (ACK/CTS timeout).
func (m *Mac) arfFailure(dst pkt.NodeID) {
	if !m.cfg.AutoRate {
		return
	}
	st := m.arfFor(dst)
	st.succ = 0
	st.fail++
	if st.fail >= m.cfg.ArfFailDown && st.idx > 0 {
		st.idx--
		st.fail = 0
	}
}
