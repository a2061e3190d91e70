package serve

// AdmState reads the admitter's capacity accounting for the external
// tests, which import core (and so cannot be package serve).
func AdmState(s *Server) (running int, memUsed int64, queued int) {
	a := s.adm
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.running, a.memUsed, a.q.len()
}

// MinCost is the admission cost floor.
const MinCost = minCost
