package analysis

// OpenTable is one file's open registrations as a trace shows them: per
// client, how many of its opens are for reading and how many for writing.
// It is the trace-side copy of the bookkeeping server.File keeps. Entries
// are dropped when both counts reach zero, so their number is the number
// of opening clients. The zero value is an empty table.
type OpenTable struct {
	entries []openEntry
}

type openEntry struct {
	client        int32
	reads, writes int32
}

// Open registers one open of the file by client, for writing or reading.
func (t *OpenTable) Open(client int32, write bool) {
	i := t.find(client)
	if i < 0 {
		t.entries = append(t.entries, openEntry{client: client})
		i = len(t.entries) - 1
	}
	if write {
		t.entries[i].writes++
	} else {
		t.entries[i].reads++
	}
}

// Close unregisters one open by client in the given mode. A close that
// matches no open is ignored, as a trace may begin with files open.
func (t *OpenTable) Close(client int32, write bool) {
	i := t.find(client)
	if i < 0 {
		return
	}
	e := &t.entries[i]
	switch {
	case write && e.writes > 0:
		e.writes--
	case !write && e.reads > 0:
		e.reads--
	}
	if e.reads == 0 && e.writes == 0 {
		last := len(t.entries) - 1
		t.entries[i] = t.entries[last]
		t.entries = t.entries[:last]
	}
}

// Openers returns the number of clients with the file open.
func (t *OpenTable) Openers() int { return len(t.entries) }

// Writers returns the number of clients with the file open for writing.
func (t *OpenTable) Writers() int {
	n := 0
	for _, e := range t.entries {
		if e.writes > 0 {
			n++
		}
	}
	return n
}

// WriteShared reports concurrent write-sharing: the file is open on two
// or more clients, at least one of them for writing.
func (t *OpenTable) WriteShared() bool {
	return t.Openers() >= 2 && t.Writers() >= 1
}

func (t *OpenTable) find(client int32) int {
	for i, e := range t.entries {
		if e.client == client {
			return i
		}
	}
	return -1
}
