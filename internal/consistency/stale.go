package consistency

import "time"

// StaleResult reports the Table 11 metrics for one polling interval.
type StaleResult struct {
	Interval time.Duration
	// Errors is the number of potential stale-data reads.
	Errors int64
	// ErrorsPerHour normalizes by trace duration.
	ErrorsPerHour float64
	// UsersAffected / TotalUsers: distinct users who suffered at least one
	// error over the trace.
	UsersAffected int
	TotalUsers    int
	// OpensWithError / TotalOpens: opens during which at least one stale
	// read occurred.
	OpensWithError int64
	TotalOpens     int64
	// MigratedOpensWithError / MigratedOpens: the same restricted to
	// migrated processes (the paper's hypothesis check).
	MigratedOpensWithError int64
	MigratedOpens          int64
}

// PctOpensWithError returns OpensWithError as a percentage of TotalOpens.
func (r *StaleResult) PctOpensWithError() float64 {
	if r.TotalOpens == 0 {
		return 0
	}
	return 100 * float64(r.OpensWithError) / float64(r.TotalOpens)
}

// PctMigratedOpensWithError returns the migrated-open error percentage.
func (r *StaleResult) PctMigratedOpensWithError() float64 {
	if r.MigratedOpens == 0 {
		return 0
	}
	return 100 * float64(r.MigratedOpensWithError) / float64(r.MigratedOpens)
}

// PctUsersAffected returns UsersAffected as a percentage of TotalUsers.
func (r *StaleResult) PctUsersAffected() float64 {
	if r.TotalUsers == 0 {
		return 0
	}
	return 100 * float64(r.UsersAffected) / float64(r.TotalUsers)
}

// SimulateStale replays the shared-file events under the paper's weaker,
// NFS-like consistency model: a client considers cached data valid for a
// fixed interval; on the first access after expiry it revalidates with the
// server; writes go through to the server almost immediately; but within
// the validity window a client can read data another workstation has since
// overwritten — a potential stale-data error.
func SimulateStale(st SharedTrace, interval time.Duration) StaleResult {
	res := StaleResult{
		Interval:      interval,
		TotalUsers:    len(st.Users),
		TotalOpens:    st.TotalOpens,
		MigratedOpens: st.MigratedOpens,
	}
	type cacheKey struct {
		client int32
		file   uint64
	}
	type cacheEntry struct {
		version     uint64 // file version the client last validated against
		validatedAt time.Duration
	}
	versions := make(map[uint64]uint64) // file -> current version
	cache := make(map[cacheKey]cacheEntry)
	affected := make(map[int32]bool)
	erroredOpens := make(map[uint64]bool) // handles that saw >= 1 error
	open := make(map[uint64]bool)         // handles still open -> migrated

	for _, ev := range st.Events {
		key := cacheKey{ev.Client, ev.File}
		switch ev.Kind {
		case EvOpen:
			open[ev.Handle] = ev.Migrated
		case EvClose:
			delete(open, ev.Handle)
		case EvWrite:
			// Write-through: the server's version advances and the writer
			// revalidates its own copy.
			versions[ev.File]++
			cache[key] = cacheEntry{version: versions[ev.File], validatedAt: ev.Time}
		case EvRead:
			cur := versions[ev.File]
			e, ok := cache[key]
			if ok && ev.Time-e.validatedAt < interval {
				// Inside the validity window: the client trusts its copy.
				if e.version != cur {
					res.Errors++
					affected[ev.User] = true
					if migrated, isOpen := open[ev.Handle]; isOpen && !erroredOpens[ev.Handle] {
						erroredOpens[ev.Handle] = true
						res.OpensWithError++
						if migrated {
							res.MigratedOpensWithError++
						}
					}
				}
			} else {
				// Expired (or cold): revalidate with the server.
				cache[key] = cacheEntry{version: cur, validatedAt: ev.Time}
			}
		}
	}
	res.UsersAffected = len(affected)
	if st.Duration > 0 {
		res.ErrorsPerHour = float64(res.Errors) / st.Duration.Hours()
	}
	return res
}
