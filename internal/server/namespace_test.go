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

type nsFile struct {
	ptr     *File // the File first handed out: it must never move
	size    int64
	dir     bool
	dormant bool              // bootstrapped and not yet looked up
	regs    [nsClients][2]int // per client: open-for-read and open-for-write counts
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
	other   int16 // a home that is not this server's
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

// pick decodes an id: usually a live one, sometimes one deleted earlier.
func (d *nsDriver) pick() uint64 {
	b := d.byte()
	if b&7 == 0 && len(d.gone) > 0 {
		return d.gone[int(b>>3)%len(d.gone)]
	}
	live := d.liveIDs()
	if len(live) == 0 {
		return d.id(d.s.ID(), 1)
	}
	return live[int(b>>3)%len(live)]
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
	d.m[want] = &nsFile{ptr: f, dir: dir}
}

// bootstrap files a regular file of at most math.MaxInt32 bytes dormant,
// and anything else woken.
func (d *nsDriver) bootstrap(size int64, dir bool) {
	want := d.nextID()
	d.what = fmt.Sprintf("BootstrapFile(%d, dir %v)", size, dir)
	if got := d.s.BootstrapFile(size, dir); got != want {
		d.failf("returned id %#x, want %#x", got, want)
	}
	d.m[want] = &nsFile{size: size, dir: dir, dormant: !dir && size <= math.MaxInt32}
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
	d.m[id] = &nsFile{ptr: f, size: size, dir: dir}
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

func (d *nsDriver) run() int {
	d.s = New(int16(d.byte() % 3))
	d.other = d.s.ID() + 1 + int16(d.byte()%8)
	d.m = map[uint64]*nsFile{}
	d.next = 1
	for ; len(d.in) > 0 && d.diff == ""; d.op++ {
		b := d.byte()
		d.now += time.Duration(b>>4) * time.Millisecond
		switch b % 19 {
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
			id, c, write := d.pick(), d.byte(), b&16 != 0
			client := int32(c % nsClients)
			d.what = fmt.Sprintf("Open(%#x, %d, write %v)", id, client, write)
			_, err := d.s.Open(id, client, write, d.now)
			d.wake(id)
			f := d.m[id]
			if (err != nil) != (f == nil) {
				d.failf("err = %v, model has file: %v", err, f != nil)
			}
			if f != nil {
				f.regs[client][b2i(write)]++
			}
		case 12:
			id, c, write := d.pick(), d.byte(), b&16 != 0
			client := int32(c % nsClients)
			d.what = fmt.Sprintf("Close(%#x, %d, write %v)", id, client, write)
			err := d.s.Close(id, client, write, false, d.now)
			d.wake(id)
			f := d.m[id]
			// Closing a deleted file is tolerated; closing without an open
			// is an error.
			wantErr := f != nil && f.regs[client][b2i(write)] == 0
			if (err != nil) != wantErr {
				d.failf("err = %v, want error %v", err, wantErr)
			}
			if f != nil && !wantErr {
				f.regs[client][b2i(write)]--
			}
		case 13:
			d.what = "Crash+Restart"
			d.s.Crash(d.now)
			d.s.Restart(d.now)
			for _, f := range d.m {
				f.regs = [nsClients][2]int{}
			}
		case 14:
			client := int32(d.byte() % nsClients)
			d.what = fmt.Sprintf("Disconnect(%d)", client)
			want := 0
			for _, f := range d.m {
				want += f.regs[client][0] + f.regs[client][1]
				f.regs[client] = [2]int{}
			}
			if got := d.s.Disconnect(client, d.now); got != want {
				d.failf("dropped %d registrations, model %d", got, want)
			}
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
	if got := d.s.Stats().Creates; got != d.creates {
		d.failf("Creates = %d, model %d", got, d.creates)
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
	for seed := int64(1); seed <= 250; seed++ {
		n, diff := diffNameSpace(seededNameSpaceOps(seed))
		if diff != "" {
			t.Fatalf("seed %d: server and model differ at %s", seed, diff)
		}
		ops += n
	}
	if ops < 250*200 {
		t.Fatalf("%d ops over 250 seeds: the streams exercise too little", ops)
	}
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
