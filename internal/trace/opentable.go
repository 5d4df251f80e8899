package trace

import "slices"

// OpenTable is one file's open registrations: per client, how many of its
// opens are for reading and how many for writing. The file server keeps
// one per file to decide recalls and concurrent write-sharing, and the
// trace analyzers rebuild one per file from the open and close records.
// Entries are dropped when both counts reach zero, so their number is the
// number of opening clients; they are kept in arrival order. The zero
// value is an empty table. Nearly every file has zero or one opener, so a
// compact slice serves where a map per file would cost two allocations.
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

// Close unregisters one open by client in the given mode and reports
// whether one matched. A close that matches no open changes nothing: the
// server reports it as an error, while a trace may begin with files open.
func (t *OpenTable) Close(client int32, write bool) bool {
	i := t.find(client)
	if i < 0 {
		return false
	}
	e := &t.entries[i]
	switch {
	case write && e.writes > 0:
		e.writes--
	case !write && e.reads > 0:
		e.reads--
	default:
		return false
	}
	if e.reads == 0 && e.writes == 0 {
		t.remove(i)
	}
	return true
}

// Set replaces client's registration with the given counts, dropping it
// when neither is positive, and returns the number of opens it replaced. A
// server sets, rather than adds, a recovery re-registration, so a repeated
// one cannot double-count; a client's disconnection is Set(client, 0, 0).
func (t *OpenTable) Set(client int32, reads, writes int) int {
	had := 0
	i := t.find(client)
	if i >= 0 {
		had = int(t.entries[i].reads) + int(t.entries[i].writes)
	}
	switch {
	case reads <= 0 && writes <= 0:
		if i >= 0 {
			t.remove(i)
		}
	case i >= 0:
		t.entries[i].reads, t.entries[i].writes = int32(reads), int32(writes)
	default:
		t.entries = append(t.entries, openEntry{client: client, reads: int32(reads), writes: int32(writes)})
	}
	return had
}

// Clear drops every registration, keeping the table's storage, and returns
// the number of opens dropped.
func (t *OpenTable) Clear() int {
	n := 0
	for _, e := range t.entries {
		n += int(e.reads) + int(e.writes)
	}
	t.entries = t.entries[:0]
	return n
}

// Registration returns client's open-for-read and open-for-write counts.
func (t *OpenTable) Registration(client int32) (reads, writes int) {
	if i := t.find(client); i >= 0 {
		return int(t.entries[i].reads), int(t.entries[i].writes)
	}
	return 0, 0
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

// Others returns the clients other than client with the file open, in
// ascending order, so that what is done to each happens in an order that
// does not depend on arrival. It allocates the slice it returns.
func (t *OpenTable) Others(client int32) []int32 {
	var out []int32
	for _, e := range t.entries {
		if e.client != client {
			out = append(out, e.client)
		}
	}
	slices.Sort(out)
	return out
}

func (t *OpenTable) find(client int32) int {
	for i, e := range t.entries {
		if e.client == client {
			return i
		}
	}
	return -1
}

// remove drops entry i by moving the last entry into its place.
func (t *OpenTable) remove(i int) {
	last := len(t.entries) - 1
	t.entries[i] = t.entries[last]
	t.entries = t.entries[:last]
}
