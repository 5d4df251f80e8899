package server

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"
)

// A model of the name space: a plain map from id to what the server was
// told about the file. The driver decodes one op stream from bytes, applies
// it to a Server and to the model, and after every op compares everything
// the name space lets a caller observe: the very pointer Create, Install or
// a file's first lookup returned, NumFiles, the create count, every id
// (read from the table), the woken files EachFile visits, the open
// registrations, and the File that Lookup, Delete and Truncate hand back.
// The check after each op reads the table through peek, which wakes
// nothing, so a dormant bootstrap file stays dormant until an op looks it
// up, and the ops in between (Crash, Disconnect, Create) run on it.
//
// The model also states Section 5's consistency rules from the paper, not
// from the server's code: each file's version, last writer and
// write-sharing flag. An open by another client than the last writer
// recalls its dirty data and makes a new version; write-sharing starts
// when the file is open on two or more clients, one of them writing, and
// disables caching on the other openers, in ascending order; caching comes
// back on exactly when a Close, a Disconnect or a Crash leaves no opener.
// Every Open and Recover reply and the counters are checked against it.

type nsFile struct {
	ptr     *File // the File first handed out: it must never move
	size    int64
	dir     bool
	dormant bool              // bootstrapped and not yet looked up
	regs    [nsClients][2]int // per client: open-for-read and open-for-write counts
	version uint64
	writer  int32 // the last writer, which may hold dirty data, or NoClient
	shared  bool  // under concurrent write-sharing: caching disabled
}

func newNSFile(size int64, dir bool) *nsFile {
	return &nsFile{size: size, dir: dir, writer: NoClient}
}

// openers returns the clients with the file open, ascending, and how many
// of them have it open for writing.
func (f *nsFile) openers() (clients []int32, writers int) {
	for c, r := range f.regs {
		if r[0]+r[1] > 0 {
			clients = append(clients, int32(c))
		}
		if r[1] > 0 {
			writers++
		}
	}
	return clients, writers
}

// held returns the k-th (modulo their number) of the file's open
// registrations as a client and a mode, or client and write if it has none.
func (f *nsFile) held(k int, client int32, write bool) (int32, bool) {
	type reg struct {
		client int32
		write  bool
	}
	var regs []reg
	for c, r := range f.regs {
		for mode, n := range r {
			if n > 0 {
				regs = append(regs, reg{int32(c), mode == 1})
			}
		}
	}
	if len(regs) == 0 {
		return client, write
	}
	r := regs[k%len(regs)]
	return r.client, r.write
}

// nsStats is the part of Stats the model predicts beyond Creates.
type nsStats struct {
	FileOpens, DirOpens, Recalls, CWSEvents, RecoveryOpens, RecoveryCWS int64
}

// nsReached counts the rare transitions a run reached, so a test can
// require that its op streams exercise them.
type nsReached struct {
	recalls, openCWS, recoverCWS   int
	closeOn, disconnectOn, crashOn int
}

const nsClients = 4

type nsDriver struct {
	s       *Server
	m       map[uint64]*nsFile
	gone    []uint64 // deleted ids, probed for absence
	next    uint64   // the sequence Create hands out next
	creates int64
	in      []byte
	now     time.Duration
	op      int
	what    string
	diff    string
	other   int16  // a home that is not this server's
	recent  uint64 // the live id pick returned last
	st      nsStats
	reached nsReached
}

func (d *nsDriver) byte() byte {
	if len(d.in) == 0 {
		return 0
	}
	b := d.in[0]
	d.in = d.in[1:]
	return b
}

func (d *nsDriver) failf(format string, args ...any) {
	if d.diff == "" {
		d.diff = fmt.Sprintf("op %d, %s: ", d.op, d.what) + fmt.Sprintf(format, args...)
	}
}

func (d *nsDriver) id(srv int16, seq uint64) uint64 { return FileID(srv, seq) }

// pick decodes an id: usually a live one, sometimes one deleted earlier,
// and in a quarter of the picks the id picked last, so that opens and
// closes gather on a file as they do on a busy one.
func (d *nsDriver) pick() uint64 {
	b := d.byte()
	switch {
	case b&7 == 0 && len(d.gone) > 0:
		return d.gone[int(b>>3)%len(d.gone)]
	case b&3 == 1 && d.recent != 0:
		return d.recent
	}
	live := d.liveIDs()
	if len(live) == 0 {
		return d.id(d.s.ID(), 1)
	}
	d.recent = live[int(b>>3)%len(live)]
	return d.recent
}

// pickOpen decodes the file of an open, a close or a recovery: in three
// picks of four one of the two lowest live ids, otherwise what pick
// decodes from the next byte. A Sprite file recalls, starts write-sharing
// and comes back to caching only when several clients keep coming back to
// it, so these ops gather on a busy few.
func (d *nsDriver) pickOpen() uint64 {
	b := d.byte()
	live := d.liveIDs()
	if b&3 == 0 || len(live) == 0 {
		return d.pick()
	}
	return live[int(b>>2)%min(len(live), 2)]
}

// sameFile compares a File the server handed back with the model's entry.
func (d *nsDriver) sameFile(name string, id uint64, got *File, want *nsFile) {
	switch {
	case want == nil && got != nil:
		d.failf("%s(%#x) returned file %#x, model has none", name, id, got.ID)
	case want == nil:
	case got == nil:
		d.failf("%s(%#x) returned nil, model has the file", name, id)
	case got.ID != id || got.Size != want.size || got.Directory != want.dir:
		d.failf("%s(%#x) = {ID %#x Size %d Dir %v}, model {Size %d Dir %v}", name, id, got.ID, got.Size, got.Directory, want.size, want.dir)
	}
}

// wake marks a live file woken by an op that looked it up; the next check
// records its pointer.
func (d *nsDriver) wake(id uint64) {
	if f := d.m[id]; f != nil {
		f.dormant = false
	}
}

// nextID returns the id Create hands out next and counts a create.
func (d *nsDriver) nextID() uint64 {
	for d.m[d.id(d.s.ID(), d.next)] != nil {
		d.next++
	}
	d.next++
	d.creates++
	return d.id(d.s.ID(), d.next-1)
}

func (d *nsDriver) create(dir bool) {
	want := d.nextID()
	d.what = fmt.Sprintf("Create(dir %v)", dir)
	f := d.s.Create(dir, d.now)
	if f.ID != want || f.Size != 0 || f.Directory != dir || f.Openers() != 0 || f.lastWriter != NoClient || f.Version != 0 {
		d.failf("created {ID %#x Size %d Dir %v openers %d lastWriter %d version %d}, want a fresh file %#x",
			f.ID, f.Size, f.Directory, f.Openers(), f.lastWriter, f.Version, want)
	}
	nf := newNSFile(0, dir)
	nf.ptr = f
	d.m[want] = nf
}

// bootstrap files a regular file of at most math.MaxInt32 bytes dormant,
// and anything else woken.
func (d *nsDriver) bootstrap(size int64, dir bool) {
	want := d.nextID()
	d.what = fmt.Sprintf("BootstrapFile(%d, dir %v)", size, dir)
	if got := d.s.BootstrapFile(size, dir); got != want {
		d.failf("returned id %#x, want %#x", got, want)
	}
	nf := newNSFile(size, dir)
	nf.dormant = !dir && size <= math.MaxInt32
	d.m[want] = nf
}

// lookup checks that the first lookup of a dormant file wakes it as
// Create(false, 0) followed by Grow(id, size, 0) would have made it, and
// records its pointer; a woken file's lookup must return that pointer.
func (d *nsDriver) lookup(id uint64) {
	d.what = fmt.Sprintf("Lookup(%#x)", id)
	want := d.m[id]
	f := d.s.Lookup(id)
	d.sameFile("Lookup", id, f, want)
	if want == nil || f == nil {
		return
	}
	if !want.dormant {
		if f != want.ptr {
			d.failf("returned another File than the one first handed out")
		}
		return
	}
	want.dormant, want.ptr = false, f
	if f.Version != 0 || f.Created != 0 || f.OldestByte != 0 || f.LastWrite != 0 ||
		f.Openers() != 0 || f.lastWriter != NoClient || f.uncacheable {
		d.failf("woke {Version %d Created %v OldestByte %v LastWrite %v openers %d lastWriter %d uncacheable %v}, want a file untouched since time 0",
			f.Version, f.Created, f.OldestByte, f.LastWrite, f.Openers(), f.lastWriter, f.uncacheable)
	}
}

func (d *nsDriver) install(id uint64, size int64, dir bool) {
	d.what = fmt.Sprintf("Install(%#x, %d, dir %v)", id, size, dir)
	f := d.s.Install(id, size, dir, d.now)
	if old := d.m[id]; old != nil {
		d.wake(id)
		if old.ptr == nil {
			old.ptr = f
		}
		if f != old.ptr {
			d.failf("installing a live id returned another File")
		}
		d.sameFile("Install", id, f, old)
		return
	}
	nf := newNSFile(size, dir)
	nf.ptr = f
	d.m[id] = nf
	d.sameFile("Install", id, f, d.m[id])
}

func (d *nsDriver) delete(id uint64) {
	d.what = fmt.Sprintf("Delete(%#x)", id)
	d.sameFile("Delete", id, d.s.Delete(id, d.now), d.m[id])
	if d.m[id] != nil {
		delete(d.m, id)
		d.gone = append(d.gone, id)
	}
}

// open applies Open to the model and checks the reply against it.
func (d *nsDriver) open(id uint64, client int32, write bool) {
	d.what = fmt.Sprintf("Open(%#x, %d, write %v)", id, client, write)
	reply, err := d.s.Open(id, client, write, d.now)
	d.wake(id)
	f := d.m[id]
	if (err != nil) != (f == nil) {
		d.failf("err = %v, model has file: %v", err, f != nil)
	}
	if f == nil {
		return
	}
	want := OpenReply{RecallFrom: NoClient}
	if f.dir {
		d.st.DirOpens++
	} else {
		d.st.FileOpens++
		if f.writer != NoClient && f.writer != client {
			want.RecallFrom = f.writer
			f.writer = NoClient
			f.version++
			d.st.Recalls++
			d.reached.recalls++
		}
	}
	f.regs[client][b2i(write)]++
	if d.share(f, client, &want) {
		d.st.CWSEvents++
		d.reached.openCWS++
	}
	d.sameReply(reply, want)
}

// recover applies a recovery re-registration to the model: the client's
// counts are set, not added, and its reply is an open's without a recall.
func (d *nsDriver) recover(id uint64, client int32, reads, writes int) {
	d.what = fmt.Sprintf("Recover(%#x, %d, %d/%d)", id, client, reads, writes)
	reply, err := d.s.Recover(id, client, reads, writes, d.now)
	d.wake(id)
	f := d.m[id]
	if (err != nil) != (f == nil) {
		d.failf("err = %v, model has file: %v", err, f != nil)
	}
	if f == nil {
		return
	}
	d.st.RecoveryOpens++
	f.regs[client] = [2]int{reads, writes}
	want := OpenReply{RecallFrom: NoClient}
	if d.share(f, client, &want) {
		d.st.RecoveryCWS++
		d.reached.recoverCWS++
	}
	d.sameReply(reply, want)
}

// share fills in want's version, size and caching decision after client's
// registration changed, starting write-sharing when the file is open on
// two or more clients, one of them writing. It reports a start.
// Directories are never cached and never write-shared.
func (d *nsDriver) share(f *nsFile, client int32, want *OpenReply) bool {
	want.Version, want.Size = f.version, f.size
	if f.dir {
		return false
	}
	clients, writers := f.openers()
	started := !f.shared && len(clients) >= 2 && writers >= 1
	if started {
		f.shared = true
		want.StartedCWS = true
		want.DisableOn = slices.DeleteFunc(clients, func(c int32) bool { return c == client })
	}
	want.Cacheable = !f.shared
	return started
}

func (d *nsDriver) sameReply(got, want OpenReply) {
	if got.Version != want.Version || got.Size != want.Size || got.Cacheable != want.Cacheable ||
		got.RecallFrom != want.RecallFrom || got.StartedCWS != want.StartedCWS || !slices.Equal(got.DisableOn, want.DisableOn) {
		d.failf("reply %+v, model %+v", got, want)
	}
}

// reenable turns caching back on when the file has no opener left, and
// counts it in *n.
func (d *nsDriver) reenable(f *nsFile, n *int) {
	if clients, _ := f.openers(); f.shared && len(clients) == 0 {
		f.shared = false
		*n++
	}
}

func (d *nsDriver) close(id uint64, client int32, write, dirty bool) {
	d.what = fmt.Sprintf("Close(%#x, %d, write %v, dirty %v)", id, client, write, dirty)
	err := d.s.Close(id, client, write, dirty, d.now)
	d.wake(id)
	f := d.m[id]
	// Closing a deleted file is tolerated; closing without an open is an
	// error and changes nothing.
	wantErr := f != nil && f.regs[client][b2i(write)] == 0
	if (err != nil) != wantErr {
		d.failf("err = %v, want error %v", err, wantErr)
	}
	if f == nil || wantErr {
		return
	}
	f.regs[client][b2i(write)]--
	// Dirty data left on a write-shared file went through to the server.
	if write && dirty && !f.shared {
		f.writer = client
	}
	d.reenable(f, &d.reached.closeOn)
}

func (d *nsDriver) crash() {
	d.what = "Crash+Restart"
	want := 0
	for _, f := range d.m {
		for _, r := range f.regs {
			want += r[0] + r[1]
		}
		if f.shared {
			d.reached.crashOn++
		}
		f.regs = [nsClients][2]int{}
		f.writer, f.shared = NoClient, false
	}
	if got := d.s.Crash(d.now).OpensDropped; got != want {
		d.failf("dropped %d registrations, model %d", got, want)
	}
	d.s.Restart(d.now)
}

func (d *nsDriver) disconnect(client int32) {
	d.what = fmt.Sprintf("Disconnect(%d)", client)
	want := 0
	for _, f := range d.m {
		want += f.regs[client][0] + f.regs[client][1]
		f.regs[client] = [2]int{}
		if f.writer == client {
			f.writer = NoClient
		}
		d.reenable(f, &d.reached.disconnectOn)
	}
	if got := d.s.Disconnect(client, d.now); got != want {
		d.failf("dropped %d registrations, model %d", got, want)
	}
}

func (d *nsDriver) run() int {
	d.s = New(int16(d.byte() % 3))
	d.other = d.s.ID() + 1 + int16(d.byte()%8)
	d.m = map[uint64]*nsFile{}
	d.next = 1
	for ; len(d.in) > 0 && d.diff == ""; d.op++ {
		b := d.byte()
		d.now += time.Duration(b>>4) * time.Millisecond
		switch b % 21 {
		case 0, 1, 2:
			d.create(b&16 != 0)
		case 3:
			// Near: at or just past the next sequence Create would hand out,
			// or on top of a live one.
			d.install(d.id(d.s.ID(), d.next+uint64(d.byte()%8)), int64(d.byte())*100, b&16 != 0)
		case 4:
			// Far past the index's end, or on top of a live or deleted id.
			id := d.id(d.s.ID(), 1<<40+uint64(d.byte()%4))
			if b&16 != 0 {
				id = d.pick()
			}
			d.install(id, int64(d.byte())*100, false)
		case 5:
			d.install(d.id(d.other, 1+uint64(d.byte()%8)), int64(d.byte())*100, false)
		case 6:
			d.delete(d.pick())
		case 7:
			// Delete then Create: the freed File comes straight back.
			d.delete(d.pick())
			d.create(b&16 != 0)
		case 8:
			id := d.pick()
			d.what = fmt.Sprintf("Truncate(%#x)", id)
			d.wake(id)
			if f := d.m[id]; f != nil {
				f.size = 0
				f.version++
			}
			d.sameFile("Truncate", id, d.s.Truncate(id, d.now), d.m[id])
		case 9:
			id, size := d.pick(), int64(d.byte())*1000
			d.what = fmt.Sprintf("Grow(%#x, %d)", id, size)
			d.s.Grow(id, size, d.now)
			d.wake(id)
			if f := d.m[id]; f != nil {
				f.size = max(f.size, size)
			}
		case 10, 11:
			id, c, write := d.pickOpen(), d.byte(), b&16 != 0
			d.open(id, int32(c%nsClients), write)
		case 12, 19:
			// The client byte's third bit says whether the close leaves
			// dirty data behind; its fourth or fifth (three closes in
			// four) makes it close one of the file's opens, so that files
			// come to have no opener.
			id, c := d.pickOpen(), d.byte()
			client, write := int32(c%nsClients), b&16 != 0
			if f := d.m[id]; f != nil && c&24 != 0 {
				client, write = f.held(int(c>>4), client, write)
			}
			d.close(id, client, write, c&4 != 0)
		case 13:
			d.crash()
		case 14:
			d.disconnect(int32(d.byte() % nsClients))
		case 15, 16:
			// One size in 64 is just past what a dormant entry holds, one
			// is the largest it holds.
			c := d.byte()
			size := int64(c) * 1000
			switch c % 64 {
			case 62:
				size = math.MaxInt32
			case 63:
				size = math.MaxInt32 + 1
			}
			d.bootstrap(size, b&16 != 0)
		case 17:
			d.lookup(d.pick())
		case 18:
			id, c := d.pickOpen(), d.byte()
			d.recover(id, int32(c%nsClients), int(c>>2)&3, int(c>>4)&3)
		default:
			d.what = "probe"
			for _, id := range []uint64{d.id(d.s.ID(), 1<<47), d.id(d.other+8, 1), d.id(d.s.ID(), 0)} {
				if d.m[id] == nil && d.s.Lookup(id) != nil {
					d.failf("Lookup(%#x) found a file the model does not have", id)
				}
			}
		}
		d.check()
	}
	return d.op
}

// liveIDs returns the model's ids in ascending order.
func (d *nsDriver) liveIDs() []uint64 {
	ids := make([]uint64, 0, len(d.m))
	for id := range d.m {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// check compares everything the name space lets a caller observe, through
// peek, which wakes nothing.
func (d *nsDriver) check() {
	if got, want := d.s.NumFiles(), len(d.m); got != want {
		d.failf("NumFiles = %d, model %d", got, want)
	}
	st := d.s.Stats()
	if st.Creates != d.creates {
		d.failf("Creates = %d, model %d", st.Creates, d.creates)
	}
	if got := (nsStats{st.FileOpens, st.DirOpens, st.Recalls, st.CWSEvents, st.RecoveryOpens, st.RecoveryCWS}); got != d.st {
		d.failf("Stats %+v, model %+v", got, d.st)
	}
	want := d.liveIDs()
	if got := d.s.files.ids(); !slices.Equal(got, want) {
		d.failf("ids = %#x, model %#x", got, want)
	}
	var woken, visited []uint64
	for _, id := range want {
		f := d.m[id]
		got, size, dormant := d.s.files.peek(id)
		if dormant != f.dormant {
			d.failf("%#x dormant = %v, model %v", id, dormant, f.dormant)
			return
		}
		if dormant {
			if size != f.size {
				d.failf("dormant %#x has size %d, model %d", id, size, f.size)
			}
			continue
		}
		woken = append(woken, id)
		if f.ptr == nil {
			f.ptr = got
		}
		if got != f.ptr {
			d.failf("%#x moved or lost its File", id)
			return
		}
		d.sameFile("peek", id, got, f)
		if got.Version != f.version || got.lastWriter != f.writer || got.Uncacheable() != f.shared {
			d.failf("%#x has version %d, last writer %d, uncacheable %v; model %d, %d, %v",
				id, got.Version, got.lastWriter, got.Uncacheable(), f.version, f.writer, f.shared)
		}
		for c := int32(0); c < nsClients; c++ {
			if r, w := got.Registration(c); r != f.regs[c][0] || w != f.regs[c][1] {
				d.failf("Registration(%#x, %d) = %d/%d, model %d/%d", id, c, r, w, f.regs[c][0], f.regs[c][1])
			}
		}
	}
	d.s.EachFile(func(f *File) { visited = append(visited, f.ID) })
	if !slices.Equal(visited, woken) {
		d.failf("EachFile visited %#x, model's woken files %#x", visited, woken)
	}
	for _, id := range d.gone {
		if f, _, dormant := d.s.files.peek(id); d.m[id] == nil && (f != nil || dormant) {
			d.failf("%#x, deleted, is still in the table", id)
		}
	}
}

// diffNameSpace runs one op stream against a Server and the model and
// returns the number of ops applied and the first difference, or "".
func diffNameSpace(in []byte) (ops int, diff string) {
	d := &nsDriver{in: in}
	ops = d.run()
	return ops, d.diff
}

func seededNameSpaceOps(seed int64) []byte {
	in := make([]byte, 900)
	rand.New(rand.NewSource(seed)).Read(in)
	return in
}

func TestNameSpaceMatchesModel(t *testing.T) {
	var ops int
	var reached nsReached
	for seed := int64(1); seed <= 250; seed++ {
		d := &nsDriver{in: seededNameSpaceOps(seed)}
		ops += d.run()
		if d.diff != "" {
			t.Fatalf("seed %d: server and model differ at %s", seed, d.diff)
		}
		r := d.reached
		reached.recalls += r.recalls
		reached.openCWS += r.openCWS
		reached.recoverCWS += r.recoverCWS
		reached.closeOn += r.closeOn
		reached.disconnectOn += r.disconnectOn
		reached.crashOn += r.crashOn
	}
	if ops < 250*200 {
		t.Fatalf("%d ops over 250 seeds: the streams exercise too little", ops)
	}
	// Each transition is counted well above the floor (the least, a
	// re-enable by Disconnect, about 40 times), so a change to the decoding
	// that thins one out fails here before it drops to none.
	const floor = 25
	r := reached
	if min(r.recalls, r.openCWS, r.recoverCWS, r.closeOn, r.disconnectOn, r.crashOn) < floor {
		t.Fatalf("over 250 seeds the streams reached %+v: each consistency transition must occur at least %d times", r, floor)
	}
	t.Logf("%d ops; reached %+v", ops, r)
}

func FuzzNameSpace(f *testing.F) {
	for seed := int64(1); seed <= 4; seed++ {
		f.Add(seededNameSpaceOps(seed))
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) > 2048 {
			in = in[:2048]
		}
		if _, diff := diffNameSpace(in); diff != "" {
			t.Fatalf("server and model differ at %s", diff)
		}
	})
}
