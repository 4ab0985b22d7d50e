package radio

import "testing"

// decodeOps turns a fuzz byte stream into a bounded differential op
// schedule: each op is 3 bytes (kind, radio, arg). Attach ops are capped
// so a pathological input cannot grow the deployment without bound.
func decodeOps(data []byte) []mediumOp {
	const maxOps = 120
	const maxAttach = 6
	var ops []mediumOp
	attached := 0
	for i := 0; i+2 < len(data) && len(ops) < maxOps; i += 3 {
		kind := int(data[i]) % 6
		if kind == 3 {
			if attached >= maxAttach {
				kind = 0
			} else {
				attached++
			}
		}
		ops = append(ops, mediumOp{
			kind:  kind,
			radio: int(data[i+1]),
			arg:   int(data[i+2]),
		})
	}
	return ops
}

// FuzzMediumDifferential drives the memoised and exhaustive-reference
// transmit paths through an arbitrary interleaving of transmissions,
// motion, crash/recover, mid-run attaches, reactions armed to
// fire from inside listener callbacks and listeners opting out of carrier
// edges and back in, and requires bit-identical listener logs and
// counters from the two (compareTiers), with the
// coherence audit, the state clocks (against the push-model oracle and the
// edges each listener saw — runOps' checkClocks) and the quiescent end
// state checked on each.
// It is the adversarial extension of TestMobilityInvalidationTorture:
// anything that desynchronises an audible set from ground truth shows up
// as a log divergence here.
func FuzzMediumDifferential(f *testing.F) {
	f.Add([]byte{0, 0, 0})
	f.Add([]byte{0, 0, 0, 0, 1, 1, 0, 2, 2, 0, 3, 3}) // overlapping tx burst
	f.Add([]byte{0, 0, 0, 1, 0, 9, 0, 0, 1})          // tx, move, tx
	f.Add([]byte{0, 5, 2, 1, 5, 1, 0, 5, 3})          // rated tx, sender moves, tx
	f.Add([]byte{2, 4, 0, 0, 4, 0, 2, 4, 1, 0, 4, 2}) // crash, tx attempt, recover, tx
	f.Add([]byte{3, 0, 7, 0, 12, 0, 1, 12, 50, 0, 12, 1})
	f.Add([]byte{
		0, 0, 0, 0, 6, 1, 1, 3, 200, 0, 9, 2,
		2, 2, 0, 0, 2, 0, 3, 0, 3, 0, 12, 0, 2, 2, 1, 0, 2, 4,
	})
	// Receiver crash/recover mid-flight, the nlive clamp's edge cases.
	// Radio 1 crashes under three arrivals, one ends while it is down
	// (1.1 ms frames end between ops), it recovers under a frame it never
	// counted, then is power-cycled again under a fresh one.
	f.Add([]byte{0, 0, 15, 0, 6, 15, 0, 11, 0, 2, 1, 0, 0, 2, 15, 2, 1, 1, 0, 0, 15, 2, 1, 0, 2, 1, 1})
	// The converse: radio 1 is down when a frame starts and up when it
	// ends, hears two later frames across another power cycle, and
	// transmits itself while they drain.
	f.Add([]byte{2, 1, 0, 0, 0, 15, 2, 1, 1, 0, 2, 15, 0, 5, 0, 2, 1, 0, 2, 1, 1, 0, 1, 0})
	// Two newcomers attached at the same spot: a 0.28 W arrival passes
	// through an accumulator holding 2e-11 W, and the residue it leaves
	// must stay inside the audit's energy tolerance.
	f.Add([]byte{
		3, 48, 49, 3, 48, 56, 3, 48, 48, 3, 48, 48, 3, 48, 48, 3, 48, 56,
		3, 49, 49, 3, 48, 48, 2, 48, 48, 2, 48, 48, 2, 48, 48, 2, 48, 48,
	})
	// Re-entrancy (see TestReentrantTransmitFromCallbacks and
	// TestSenderCrashedFromCallback): radio 5 transmits from inside the
	// carrier callback radio 0's arrival loop makes and radio 1 from inside
	// the receive callback its finish makes; once the air has cleared
	// (four no-op recovers), radio 5's carrier callback crashes radio 0
	// (victim 2/6) in the middle of radio 0's own loop.
	f.Add([]byte{
		4, 5, 0, 4, 1, 1, 0, 0, 0,
		2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1,
		4, 5, 2, 0, 0, 0,
	})
	// Opting out of carrier edges: radio 1 goes quiet under radio 0's frame,
	// sleeps through its end and the start of radio 2's, opts back in
	// mid-frame (reading the flag), is crashed and recovered while quiet
	// (no replay) and while listening (replay); radio 5 stays quiet while it
	// transmits itself. StateTimes must add up on all of them throughout.
	f.Add([]byte{
		0, 0, 0, 5, 1, 1, 5, 5, 1, 0, 0, 0, 0, 0, 0, 0, 2, 3, 5, 1, 0,
		5, 1, 1, 2, 1, 0, 0, 0, 0, 2, 1, 1, 5, 1, 0, 2, 1, 0, 2, 1, 1, 0, 5, 0,
	})
	f.Fuzz(func(t *testing.T, data []byte) {
		if ops := decodeOps(data); len(ops) > 0 {
			compareTiers(t, ops)
		}
	})
}
