package solver

// FacePairing returns the face pairing table (link, remote) and the
// gather-scatter's masked id vector, for the external tests.
func (s *Solver) FacePairing() (link, remote []int32, ids []int64) {
	return s.link, s.remote, s.exchangeIDs()
}

// DomainBoundary is the link of a face with no neighbor.
const DomainBoundary = domainBoundary
