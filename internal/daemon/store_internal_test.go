package daemon

// Flushed returns the number of envelopes written so far.
func (f *Flusher) Flushed() int64 { return f.flushed.Load() }
