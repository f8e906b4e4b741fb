package feemarket

// History returns the base fees charged by the last sealed blocks
// (oldest first, bounded at maxHistory entries).
func (m *Market) History() []uint64 {
	out := make([]uint64, 0, len(m.history))
	out = append(out, m.history[m.head:]...)
	out = append(out, m.history[:m.head]...)
	return out
}
