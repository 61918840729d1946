package framesim

// WithoutSkip returns a copy of e with the quiet-window skip off: the
// reference the skip must reproduce bit for bit.
func (e *SteaneEngine) WithoutSkip() *SteaneEngine {
	c := *e
	c.noSkip = true
	return &c
}

// WithoutSkip returns a copy of s with the quiet-window skip off.
func (s *Sparse) WithoutSkip() *Sparse {
	c := *s
	c.noSkip = true
	return &c
}
