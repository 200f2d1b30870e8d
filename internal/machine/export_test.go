package machine

// ActivityOf exposes the run loop's incrementally maintained activity
// totals to the external tests.
func ActivityOf(m *Machine) Activity { return m.act }
