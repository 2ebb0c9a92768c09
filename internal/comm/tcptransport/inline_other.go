//go:build !unix

package tcptransport

// writeNow takes no bytes off unix: every message queues for the writer.
func (p *peer) writeNow([]byte) (int, error) { return 0, nil }
