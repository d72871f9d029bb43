package ingest

import "artemis/internal/feeds/feedtypes"

// Pool exposes the supervisor's batch pool so the ownership tests can
// poison it.
func (s *Supervisor) Pool() *feedtypes.BatchPool { return s.pool }
