package workload

import (
	"spritefs/internal/server"
	"spritefs/internal/sim"
	"spritefs/internal/vm"
)

// Binary is a program executable image living in the shared file system.
type Binary struct {
	File      uint64
	CodePages int
	DataPages int
}

// Registry is the pre-existing file population: system binaries, per-user
// small files (sources, documents), mailboxes, per-group shared files and
// directories, and the big-simulation users' input files. It is built
// directly on the servers before tracing starts, exactly as the paper's
// traced window began with a populated file system.
//
// The per-user files sit in flat arrays indexed by user id (0 up to the
// number of users), read through Small, Data, Mailbox and Dir: at a large
// population one map entry and one slice header per user cost more than
// the ids themselves.
type Registry struct {
	Binaries []Binary
	// KernelImages are the 2-10 MB kernel binaries the OS group works
	// with (the paper checked they were not skewing the size results).
	KernelImages []uint64

	// User u's small files are small[smallOff[u]:smallOff[u+1]], and its
	// data files (medium-sized simulation inputs and datasets, in the
	// hundreds-of-kilobytes range) likewise in data.
	small, data       []uint64
	smallOff, dataOff []int32
	mailboxes, dirs   []uint64

	GroupShared [NumGroups][]uint64
	GroupDirs   [NumGroups]uint64

	// BigInputs[i] are the input files of big-sim user i (20 MB class).
	BigInputs [][]uint64
}

// Bootstrap creates the initial file population spread across the servers,
// with most files on server 0 (the paper's dominant Sun 4). Sizes are
// drawn from the Params distributions.
func Bootstrap(p Params, servers []*server.Server, rng *sim.Rand) *Registry {
	if len(servers) == 0 {
		panic("workload: no servers")
	}
	nUsers := p.DailyUsers + p.OccasionalUsers
	// Each user draws 8-23 small and 2-4 data files; sized a little over
	// the means, the arrays are not regrown at any population worth
	// sizing for.
	r := &Registry{
		small:     make([]uint64, 0, nUsers*16),
		smallOff:  make([]int32, 1, nUsers+1),
		data:      make([]uint64, 0, nUsers*13/4),
		dataOff:   make([]int32, 1, nUsers+1),
		mailboxes: make([]uint64, nUsers),
		dirs:      make([]uint64, nUsers),
	}
	// Server selection: 70% of files on server 0, the rest spread.
	pick := func() *server.Server {
		if len(servers) == 1 || rng.Bool(0.7) {
			return servers[0]
		}
		return servers[1+rng.Intn(len(servers)-1)]
	}
	mk := func(size int64) uint64 { return pick().BootstrapFile(size, false) }
	mkDir := func(size int64) uint64 { return pick().BootstrapFile(size, true) }

	// System binaries: the common tools everyone execs.
	const numBinaries = 24
	for i := 0; i < numBinaries; i++ {
		code := p.CodePagesMin + rng.Intn(p.CodePagesMax-p.CodePagesMin+1)
		data := p.DataPagesMin + rng.Intn(p.DataPagesMax-p.DataPagesMin+1)
		size := int64(code+data) * vm.PageSize
		r.Binaries = append(r.Binaries, Binary{File: mk(size), CodePages: code, DataPages: data})
	}
	// Kernel images for the OS group: 2-10 MB.
	for i := 0; i < 6; i++ {
		size := int64(rng.Range(2, 10) * (1 << 20))
		r.KernelImages = append(r.KernelImages, mk(size))
	}

	for u := range nUsers {
		for range 8 + rng.Intn(16) {
			r.small = append(r.small, mk(int64(rng.LogNormal(p.SmallMedian, p.SmallSigma))+1))
		}
		r.smallOff = append(r.smallOff, int32(len(r.small)))
		r.mailboxes[u] = mk(int64(rng.LogNormal(p.MailMedian, p.MailSigma)) + 1)
		r.dirs[u] = mkDir(int64(rng.Range(4096, 32768)))
		for range 2 + rng.Intn(3) {
			r.data = append(r.data, mk(int64(rng.LogNormal(256*1024, 1.0))+1))
		}
		r.dataOff = append(r.dataOff, int32(len(r.data)))
	}

	for g := Group(0); g < NumGroups; g++ {
		n := 4 + rng.Intn(4)
		for i := 0; i < n; i++ {
			r.GroupShared[g] = append(r.GroupShared[g], mk(int64(rng.LogNormal(6*1024, 1.0))+1))
		}
		r.GroupDirs[g] = mkDir(int64(rng.Range(8192, 32768)))
	}

	for i := 0; i < p.BigSimUsers; i++ {
		var inputs []uint64
		for j := 0; j < 3; j++ {
			size := int64(rng.Range(0.8, 1.2) * p.SimInputMB * (1 << 20))
			inputs = append(inputs, mk(size))
		}
		r.BigInputs = append(r.BigInputs, inputs)
	}
	return r
}

// RandomBinary picks a system binary. Selection is heavily skewed toward
// the first few "hot" tools (shell, editor, compiler driver) — everyone
// runs the same handful of programs, which is why Sprite's code-page
// retention and file-cache checks on code faults pay off (Table 6's
// paging hit rate).
func (r *Registry) RandomBinary(rng *sim.Rand) Binary {
	if len(r.Binaries) > 6 && rng.Bool(0.85) {
		return r.Binaries[rng.Intn(6)]
	}
	return r.Binaries[rng.Intn(len(r.Binaries))]
}

// Small returns user u's small files (sources, documents), or nil if u
// is not one of the registry's users.
func (r *Registry) Small(u int32) []uint64 { return span(r.small, r.smallOff, u) }

// Data returns user u's medium data files, or nil if u is not one of the
// registry's users.
func (r *Registry) Data(u int32) []uint64 { return span(r.data, r.dataOff, u) }

// span is user u's run of files in a flat per-user array.
func span(files []uint64, off []int32, u int32) []uint64 {
	if u < 0 || int(u)+1 >= len(off) {
		return nil
	}
	return files[off[u]:off[u+1]:off[u+1]]
}

// Mailbox returns user u's mailbox; ok is false if u is not one of the
// registry's users.
func (r *Registry) Mailbox(u int32) (id uint64, ok bool) {
	if u < 0 || int(u) >= len(r.mailboxes) {
		return 0, false
	}
	return r.mailboxes[u], true
}

// Dir returns user u's home directory, or 0 if u is not one of the
// registry's users.
func (r *Registry) Dir(u int32) uint64 {
	if u < 0 || int(u) >= len(r.dirs) {
		return 0
	}
	return r.dirs[u]
}

// EachFile calls fn on every regular file of the population, in the
// order Bootstrap created them: binaries, kernel images, each user's
// small files, mailbox and data files, the groups' shared files and the
// big-sim inputs. Directories are not listed.
// The nightly backup pass reads the files in this order.
func (r *Registry) EachFile(fn func(id uint64)) {
	for _, b := range r.Binaries {
		fn(b.File)
	}
	eachID(r.KernelImages, fn)
	for u, mailbox := range r.mailboxes {
		eachID(r.Small(int32(u)), fn)
		fn(mailbox)
		eachID(r.Data(int32(u)), fn)
	}
	for _, files := range r.GroupShared {
		eachID(files, fn)
	}
	for _, files := range r.BigInputs {
		eachID(files, fn)
	}
}

func eachID(ids []uint64, fn func(uint64)) {
	for _, id := range ids {
		fn(id)
	}
}

// RandomData picks one of the user's medium data files.
func (r *Registry) RandomData(rng *sim.Rand, user int32) (uint64, bool) {
	files := r.Data(user)
	if len(files) == 0 {
		return 0, false
	}
	return files[rng.Intn(len(files))], true
}

// RandomSmall picks one of the user's small files.
func (r *Registry) RandomSmall(rng *sim.Rand, user int32) (uint64, bool) {
	files := r.Small(user)
	if len(files) == 0 {
		return 0, false
	}
	return files[rng.Intn(len(files))], true
}

// RandomShared picks one of the group's shared files.
func (r *Registry) RandomShared(rng *sim.Rand, g Group) (uint64, bool) {
	files := r.GroupShared[g]
	if len(files) == 0 {
		return 0, false
	}
	return files[rng.Intn(len(files))], true
}
