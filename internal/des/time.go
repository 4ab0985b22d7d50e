package des

import "fmt"

// Time is a point in simulated time, measured in integer nanoseconds from
// the start of the run. Integer time makes event ordering exact: there is
// no floating-point drift, so two events scheduled for the same instant
// compare equal on every platform.
type Time int64

// Convenient duration units (a Time used as an offset is a duration).
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Seconds returns t expressed in seconds as a float64 (for reporting only;
// the kernel never computes with floats).
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// FromSeconds converts a float64 second count to Time, rounding to the
// nearest nanosecond.
func FromSeconds(s float64) Time {
	if s < 0 {
		return Time(s*float64(Second) - 0.5)
	}
	return Time(s*float64(Second) + 0.5)
}

// String formats the time as seconds with microsecond precision.
func (t Time) String() string {
	return fmt.Sprintf("%.6fs", t.Seconds())
}
