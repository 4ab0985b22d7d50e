package mac

import "clnlr/internal/des"

// EnergyParams are the radio power draws used by the per-node energy
// meter. Defaults follow the classic WaveLAN measurements of Feeney &
// Nilsson (INFOCOM 2001): transmitting is the most expensive state,
// receiving/overhearing close behind, idle listening clearly cheaper but
// far from free.
type EnergyParams struct {
	TxW   float64 // transmitting
	RxW   float64 // receiving / channel busy (overhearing costs the same)
	IdleW float64 // idle listening
}

// DefaultEnergyParams returns the WaveLAN power profile.
func DefaultEnergyParams() EnergyParams {
	return EnergyParams{TxW: 1.65, RxW: 1.4, IdleW: 1.15}
}

// EnergyStats is the externally visible energy accounting of one node.
type EnergyStats struct {
	Joules                   float64
	IdleTime, RxTime, TxTime des.Time
}

// Energy returns the node's cumulative energy consumption: the radio's
// own state clock (radio.Radio.StateTimes — transmitting dominates
// receiving dominates idle) priced with DefaultEnergyParams.
func (m *Mac) Energy() EnergyStats {
	idle, rx, tx := m.radio.StateTimes()
	p := DefaultEnergyParams()
	return EnergyStats{
		Joules:   p.IdleW*idle.Seconds() + p.RxW*rx.Seconds() + p.TxW*tx.Seconds(),
		IdleTime: idle,
		RxTime:   rx,
		TxTime:   tx,
	}
}
