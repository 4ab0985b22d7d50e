package des

// Valid reports whether the handle refers to an event (pending or
// completed) as opposed to the zero Event.
func (e Event) Valid() bool { return e.n != nil }

// Fired reports whether the event is no longer pending: its handler has
// run or it was cancelled (a stale handle cannot tell the two apart).
func (e Event) Fired() bool { return e.n != nil && e.n.gen != e.gen }

// Pending returns the number of events still queued, on the heap and the
// lanes. All of them are live: a cancelled event stops counting when it is
// cancelled. A train counts once, however many ticks it has left.
func (s *Sim) Pending() int { return len(s.heap) + s.laneLive }
