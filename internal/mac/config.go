package mac

import (
	"encoding/json"
	"fmt"
	"math"

	"clnlr/internal/des"
)

// Config holds the DCF and PHY-timing parameters. DefaultConfig matches
// 802.11b DSSS (long preamble) at 2 Mb/s, the configuration the WMN
// literature of the period evaluated against.
type Config struct {
	// QueueCap is the interface-queue capacity in packets (drop-tail).
	QueueCap int

	// SlotTime is the DCF slot; SIFS the short interframe space. DIFS is
	// derived as SIFS + 2·SlotTime, EIFS as SIFS + DIFS + ACK airtime.
	SlotTime des.Time
	SIFS     des.Time

	// CWMin and CWMax bound the contention window (in slots; the window
	// is [0, CW] inclusive and doubles as 2·CW+1 per retry).
	CWMin, CWMax int

	// RetryLimit is the maximum number of transmission attempts for a
	// unicast frame before it is dropped and reported failed.
	RetryLimit int

	// DataRateBps is the payload bit rate for unicast frames;
	// BasicRateBps the rate for broadcast and ACK frames.
	DataRateBps  int64
	BasicRateBps int64

	// PreambleTime is the PLCP preamble+header duration prepended to
	// every frame (192 µs for 802.11b long preamble, sent at 1 Mb/s).
	PreambleTime des.Time

	// DataHeaderBytes is the MAC overhead added to every data frame;
	// AckBytes the size of an ACK control frame.
	DataHeaderBytes int
	AckBytes        int

	// ControlPriority, when set, lets routing control packets
	// (RREQ/RREP/RERR/HELLO) jump ahead of queued data packets in the
	// interface queue — the priority-queue arrangement of the classic
	// ns-2 AODV stack. Off by default so queueing is strictly FIFO.
	ControlPriority bool

	// RTSThreshold enables the RTS/CTS handshake for unicast frames whose
	// total size is at least this many bytes (0 disables the handshake,
	// the default for the paper's RREQ-dominated workloads).
	RTSThreshold int
	RTSBytes     int
	CTSBytes     int

	// AutoRate enables ARF (Auto Rate Fallback) link adaptation for
	// unicast data frames: after ArfFailDown consecutive transmission
	// failures to a neighbour the rate steps down the RateLadder; after
	// ArfSuccessUp consecutive successes it probes one step up. Higher
	// rates need proportionally better SINR (shorter range), so ARF
	// settles on the fastest rate each link sustains. The ladder is
	// 802.11b DSSS's four rates, slowest first.
	AutoRate     bool
	RateLadder   RateLadder
	ArfSuccessUp int
	ArfFailDown  int

	// LoadSampleInterval is the cross-layer load estimator's sampling
	// window; LoadEWMAAlpha its smoothing factor; QueueLoadWeight the
	// weight of queue occupancy versus channel busy fraction in the
	// combined local-load figure.
	LoadSampleInterval des.Time
	LoadEWMAAlpha      float64
	QueueLoadWeight    float64
}

// RateLadder is ARF's four data rates in bits per second, slowest first.
type RateLadder [4]int64

// UnmarshalJSON reads the ladder from a JSON array of exactly four rates
// (a plain Go array would pad a shorter one with zeros and drop rates past
// the fourth); null leaves the ladder as it was.
func (l *RateLadder) UnmarshalJSON(b []byte) error {
	if string(b) == "null" {
		return nil
	}
	var rates []int64
	if err := json.Unmarshal(b, &rates); err != nil {
		return err
	}
	if len(rates) != len(l) {
		return fmt.Errorf("mac: RateLadder has %d rates, want %d", len(rates), len(l))
	}
	copy(l[:], rates)
	return nil
}

// DefaultConfig returns the 802.11b/DSSS parameter set.
func DefaultConfig() Config {
	return Config{
		QueueCap:           50,
		SlotTime:           20 * des.Microsecond,
		SIFS:               10 * des.Microsecond,
		CWMin:              31,
		CWMax:              1023,
		RetryLimit:         7,
		DataRateBps:        2_000_000,
		BasicRateBps:       1_000_000,
		PreambleTime:       192 * des.Microsecond,
		DataHeaderBytes:    34,
		AckBytes:           14,
		RTSThreshold:       0,
		RTSBytes:           20,
		CTSBytes:           14,
		AutoRate:           false,
		RateLadder:         RateLadder{1_000_000, 2_000_000, 5_500_000, 11_000_000},
		ArfSuccessUp:       10,
		ArfFailDown:        2,
		LoadSampleInterval: 100 * des.Millisecond,
		LoadEWMAAlpha:      0.4,
		QueueLoadWeight:    0.6,
	}
}

// Validate rejects a configuration the MAC cannot run: a zero rate or
// slot divides by zero, a negative window draws from an empty range, a
// window too wide overflows the clock, a zero sampling window stops the
// clock advancing, and a frame must take some airtime. The load
// estimator's parameters must keep every load a fraction (a zero queue
// capacity divides by zero), and RetryLimit, a count of attempts, is at
// least one. Under AutoRate the ladder must be positive rates in
// increasing order, stepped by positive thresholds.
func (c Config) Validate() error {
	switch {
	case c.QueueCap < 1:
		return fmt.Errorf("mac: QueueCap %d must be at least 1", c.QueueCap)
	case c.SlotTime <= 0:
		return fmt.Errorf("mac: SlotTime %v must be positive", c.SlotTime)
	case c.SIFS < 0:
		return fmt.Errorf("mac: SIFS %v must be non-negative", c.SIFS)
	case c.CWMin < 0 || c.CWMax < c.CWMin || c.CWMax > math.MaxInt32:
		return fmt.Errorf("mac: contention window [%d, %d] outside 0 ≤ CWMin ≤ CWMax ≤ 2^31−1", c.CWMin, c.CWMax)
	case des.Time(c.CWMax) > des.MaxTime/c.SlotTime:
		return fmt.Errorf("mac: a backoff of CWMax %d slots of %v overflows the clock", c.CWMax, c.SlotTime)
	case c.RetryLimit < 1:
		return fmt.Errorf("mac: RetryLimit %d must be at least 1", c.RetryLimit)
	case c.DataRateBps <= 0 || c.BasicRateBps <= 0:
		return fmt.Errorf("mac: DataRateBps %d and BasicRateBps %d must be positive", c.DataRateBps, c.BasicRateBps)
	case c.PreambleTime < 0:
		return fmt.Errorf("mac: PreambleTime %v must be non-negative", c.PreambleTime)
	case !frameSize(c.DataHeaderBytes) || !frameSize(c.AckBytes) || !frameSize(c.RTSBytes) || !frameSize(c.CTSBytes):
		return fmt.Errorf("mac: DataHeaderBytes, AckBytes, RTSBytes and CTSBytes must lie in [0, %d]", maxFrameBytes)
	case c.RTSThreshold < 0:
		return fmt.Errorf("mac: RTSThreshold %d must be non-negative", c.RTSThreshold)
	case c.LoadSampleInterval <= 0:
		return fmt.Errorf("mac: LoadSampleInterval %v must be positive", c.LoadSampleInterval)
	case !(c.LoadEWMAAlpha > 0 && c.LoadEWMAAlpha <= 1):
		return fmt.Errorf("mac: LoadEWMAAlpha %v outside (0,1]", c.LoadEWMAAlpha)
	case !(c.QueueLoadWeight >= 0 && c.QueueLoadWeight <= 1):
		return fmt.Errorf("mac: QueueLoadWeight %v outside [0,1]", c.QueueLoadWeight)
	}
	fastest := max(c.DataRateBps, c.BasicRateBps)
	if c.AutoRate {
		if c.ArfSuccessUp < 1 || c.ArfFailDown < 1 {
			return fmt.Errorf("mac: ArfSuccessUp %d and ArfFailDown %d must be at least 1", c.ArfSuccessUp, c.ArfFailDown)
		}
		for i, r := range c.RateLadder {
			if r <= 0 || i > 0 && r <= c.RateLadder[i-1] {
				return fmt.Errorf("mac: RateLadder %v must be positive rates in increasing order", c.RateLadder)
			}
			fastest = max(fastest, r)
		}
	}
	// The shortest frames: an ACK, RTS and CTS at the basic rate, and a
	// data frame of one byte at the fastest rate.
	if c.AckDuration() <= 0 || c.RTSThreshold > 0 && (c.RTSDuration() <= 0 || c.CTSDuration() <= 0) ||
		c.TxDuration(c.DataHeaderBytes+1, fastest) <= 0 {
		return fmt.Errorf("mac: a frame would take no airtime (PreambleTime %v)", c.PreambleTime)
	}
	return nil
}

// maxFrameBytes bounds a configured header or control-frame size, so
// that no airtime computation overflows.
const maxFrameBytes = 1 << 16

func frameSize(b int) bool { return b >= 0 && b <= maxFrameBytes }

// DIFS returns the distributed interframe space.
func (c Config) DIFS() des.Time { return c.SIFS + 2*c.SlotTime }

// EIFS returns the extended interframe space used after receiving a
// corrupted frame.
func (c Config) EIFS() des.Time { return c.SIFS + c.DIFS() + c.AckDuration() }

// TxDuration returns the airtime of a frame of the given total byte size
// at the given rate, including the PLCP preamble.
func (c Config) TxDuration(bytes int, rateBps int64) des.Time {
	bits := int64(bytes) * 8
	return c.PreambleTime + des.Time(bits*int64(des.Second)/rateBps)
}

// AckDuration returns the airtime of an ACK frame.
func (c Config) AckDuration() des.Time {
	return c.TxDuration(c.AckBytes, c.BasicRateBps)
}

// AckTimeout returns how long a sender waits for an ACK after its data
// frame's airtime ends: SIFS, the ACK airtime, plus two slots of grace.
func (c Config) AckTimeout() des.Time {
	return c.SIFS + c.AckDuration() + 2*c.SlotTime
}

// RTSDuration / CTSDuration return the control-frame airtimes.
func (c Config) RTSDuration() des.Time { return c.TxDuration(c.RTSBytes, c.BasicRateBps) }

// CTSDuration returns the CTS airtime.
func (c Config) CTSDuration() des.Time { return c.TxDuration(c.CTSBytes, c.BasicRateBps) }

// CTSTimeout returns how long an RTS sender waits for the CTS.
func (c Config) CTSTimeout() des.Time {
	return c.SIFS + c.CTSDuration() + 2*c.SlotTime
}

// usesRTS reports whether a unicast frame of the given size takes the
// RTS/CTS path.
func (c Config) usesRTS(bytes int) bool {
	return c.RTSThreshold > 0 && bytes >= c.RTSThreshold
}
