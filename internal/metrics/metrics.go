package metrics

import (
	"bytes"
	"cmp"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"time"

	"spritefs/internal/stats"
)

// Kind classifies a metric family.
type Kind uint8

// Metric kinds.
const (
	// Counter is a monotonically non-decreasing count (ops, bytes).
	Counter Kind = iota
	// Gauge is an instantaneous value that may go up and down (cache
	// size) or a running maximum (worst dirty age).
	Gauge
	// Summary is a streaming distribution (count/sum/mean/stddev/min/max),
	// backed by a stats.Welford accumulator.
	Summary
)

var kindNames = [...]string{"counter", "gauge", "summary"}

// String returns the kind name.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Label is one key="value" pair attached to a metric instance.
type Label struct{ Key, Value string }

// Labels is an ordered label set. Order is preserved in rendered output,
// so register instances of one family with the same key order.
type Labels []Label

// L is the Label constructor: L("client", "7").
func L(key, value string) Label { return Label{Key: key, Value: value} }

// String renders the set as {k="v",...}, or "" when empty. Label values
// are escaped per the Prometheus text exposition format: backslash, double
// quote and newline get a backslash escape, every other byte — including
// tabs and other control characters, which the grammar permits raw — is
// written as-is. For the plain alphanumeric values the simulators use this
// matches Go's %q byte for byte, which is what keeps the golden dumps
// stable; it diverges only on inputs %q would over-escape into sequences a
// strict exposition-format parser rejects.
func (ls Labels) String() string {
	if len(ls) == 0 {
		return ""
	}
	return string(appendLabels(nil, nil, ls, "", nil))
}

// appendLabels renders scope, then key=value when key is not empty (value
// already quoted: a column member's label), then inner, as one label set:
// with no key, the bytes Labels.String produces for scope and inner
// combined. Registration renders into the store's scratch buffer and
// interns the result.
func appendLabels(buf []byte, scope, inner Labels, key string, value []byte) []byte {
	if len(scope)+len(inner) == 0 && key == "" {
		return buf
	}
	buf = append(buf, '{')
	start := len(buf)
	for _, l := range scope {
		buf = appendLabel(buf, l, len(buf) > start)
	}
	if key != "" {
		if len(buf) > start {
			buf = append(buf, ',')
		}
		buf = append(buf, key...)
		buf = append(buf, '=')
		buf = append(buf, value...)
	}
	for _, l := range inner {
		buf = appendLabel(buf, l, len(buf) > start)
	}
	return append(buf, '}')
}

func appendLabel(buf []byte, l Label, comma bool) []byte {
	if comma {
		buf = append(buf, ',')
	}
	buf = append(buf, l.Key...)
	buf = append(buf, '=', '"')
	buf = appendEscapedLabelValue(buf, l.Value)
	return append(buf, '"')
}

// appendEscapedLabelValue writes v with the three escapes the exposition
// format defines for label values: \\ for backslash, \" for double quote,
// \n for line feed.
func appendEscapedLabelValue(buf []byte, v string) []byte {
	for i := 0; i < len(v); i++ {
		switch c := v[i]; c {
		case '\\':
			buf = append(buf, '\\', '\\')
		case '"':
			buf = append(buf, '\\', '"')
		case '\n':
			buf = append(buf, '\\', 'n')
		default:
			buf = append(buf, c)
		}
	}
	return buf
}

// Desc is a metric family's self-description: everything docs/METRICS.md
// needs to document it and everything an export needs to render it.
type Desc struct {
	// Name is the full metric name, e.g. "spritefs_cache_read_ops_total".
	// Counter names end in _total by convention.
	Name string
	// Unit is the value's unit: "ops", "bytes", "blocks", "seconds", ...
	Unit string
	// Help is the one-line human description emitted as # HELP and into
	// the generated documentation.
	Help string
	// Kind is the family's metric kind.
	Kind Kind
}

// Population is a set of like components (a cluster's workstations, its
// servers) that a column registers once instead of once per member: member
// i carries the label Key="<ID(i)>". Len and ID read the owner's live
// slice, so the population grows, by an append or by an insert in the
// middle, without the registry being told, and the registry and the
// sampler know a member by its ID, never by its position. IDs are unique
// within a population, and a population only grows.
type Population struct {
	Key string
	Len func() int
	ID  func(i int) int64
}

// metric is one registration: a column, one family member over a
// population, or a single instance, the column of one member with no
// population label. A column member's labels are the registry scope's,
// then its population's, then the column's inner labels; they are rendered
// only at export. Values are read at snapshot time, through a pointer into
// the owner's counter (the Var registrations: the hot path stays a plain
// field increment and the registry costs nothing per event) or through a
// closure (values computed at snapshot time, and every column's read of
// member i).
type metric struct {
	set *labelSet
	pop *Population // nil for a single instance
	// src is a single instance's *int64, *time.Duration, *stats.Welford,
	// func() int64 or func() stats.Welford, or a column's func(int) int64,
	// func(int) time.Duration or func(int) stats.Welford; its type is the
	// value type.
	src any
}

// summaryScale multiplies summary sample values at export: every
// registered distribution is a Welford accumulator that collected
// nanoseconds (the simulators store time.Duration as float64) and
// exports seconds.
const summaryScale = 1e-9

// members returns how many instances the registration stands for now.
func (m *metric) members() int {
	if m.pop == nil {
		return 1
	}
	return m.pop.Len()
}

func (m *metric) isInt() bool {
	switch m.src.(type) {
	case *int64, func() int64, func(int) int64:
		return true
	}
	return false
}

func (m *metric) isDur() bool {
	switch m.src.(type) {
	case *time.Duration, func(int) time.Duration:
		return true
	}
	return false
}

func (m *metric) intVal(i int) int64 {
	switch src := m.src.(type) {
	case *int64:
		return *src
	case func() int64:
		return src()
	}
	return m.src.(func(int) int64)(i)
}

func (m *metric) durVal(i int) time.Duration {
	if p, ok := m.src.(*time.Duration); ok {
		return *p
	}
	return m.src.(func(int) time.Duration)(i)
}

func (m *metric) sumVal(i int) stats.Welford {
	switch src := m.src.(type) {
	case *stats.Welford:
		return *src
	case func() stats.Welford:
		return src()
	}
	return m.src.(func(int) stats.Welford)(i)
}

// key returns member i's rendered label set: a single instance's interned
// key, or a column member's, rendered now.
func (m *metric) key(i int) string {
	if m.pop == nil {
		return m.set.key
	}
	return string(m.appendKey(nil, i))
}

// appendKey appends member i's rendered label set.
func (m *metric) appendKey(buf []byte, i int) []byte {
	if m.pop == nil {
		return append(buf, m.set.key...)
	}
	var v [22]byte
	return m.set.appendMember(buf, m.pop.Key, quotedID(v[:0], m.pop.ID(i)))
}

// quotedID appends id as a quoted label value.
func quotedID(buf []byte, id int64) []byte {
	return append(strconv.AppendInt(append(buf, '"'), id, 10), '"')
}

// idIs reports whether member i's label value is v, without rendering a
// string.
func (m *metric) idIs(i int, v string) bool {
	var b [20]byte
	return string(strconv.AppendInt(b[:0], m.pop.ID(i), 10)) == v
}

// matches reports whether member i carries every selector pair.
func (m *metric) matches(sel []Label, i int) bool {
	for _, s := range sel {
		if !slices.Contains(m.set.labels, s) && (m.pop == nil || s.Key != m.pop.Key || !m.idIs(i, s.Value)) {
			return false
		}
	}
	return true
}

// Family is one named metric with all its registrations.
type Family struct {
	Desc Desc
	idx  int // position in the store's families, its bit in a labelSet's fams
	// regs holds the family's registrations, columns and single instances
	// alike; columns counts the former.
	regs    []metric
	columns int
}

// Instances returns the number of instances: every column's members now,
// and one for each single instance.
func (f *Family) Instances() int {
	n := 0
	for i := range f.regs {
		n += f.regs[i].members()
	}
	return n
}

// LabelKeys returns the label key sets in use by the family's instances,
// deduplicated and sorted (normally a single entry, e.g. "client,scope").
func (f *Family) LabelKeys() []string {
	seen := map[string]bool{}
	var out []string
	for i := range f.regs {
		m := &f.regs[i]
		if m.members() == 0 {
			continue
		}
		at := len(m.set.labels)
		if m.pop != nil {
			at = m.set.at
		}
		var keys []string
		for _, l := range m.set.labels[:at] {
			keys = append(keys, l.Key)
		}
		if m.pop != nil {
			keys = append(keys, m.pop.Key)
		}
		for _, l := range m.set.labels[at:] {
			keys = append(keys, l.Key)
		}
		k := strings.Join(keys, ",")
		if !seen[k] {
			seen[k] = true
			out = append(out, k)
		}
	}
	slices.Sort(out)
	return out
}

// Registry is the central metric store. It is not safe for concurrent
// mutation; the simulators are single-threaded per run, and sweep workers
// each own a private registry (which is what keeps dumps worker-count
// invariant). A Registry is a view onto a shared family store plus a
// label scope; Scoped derives views that stamp extra labels onto every
// registration, which is how the scale-out engine gives each shard's
// component stack a shard="N" label without the components knowing.
type Registry struct {
	s     *store
	scope Labels
}

// labelSet is one interned label set, shared by every registration with
// the same effective labels: a single instance's scope and instance
// labels, or a column's scope and inner labels with its population key
// between them. A thousand families with a client="7" instance, or a
// hundred columns with shard="3",scope="all", share one key string and
// one canonical Labels slice.
type labelSet struct {
	// key is a single instance's rendered labels, or a column's with the
	// population label rendered key=* (unquoted, so that no instance's
	// rendering can equal it).
	key    string
	labels Labels
	// at is where a column's population label goes: after the scope
	// labels, before labels[at].
	at int
	// fams has bit Family.idx set once the family has a registration
	// with this set: the duplicate check, O(1) per registration so that
	// building a large registry is not quadratic.
	fams []uint64
}

// appendMember renders a column member over s: the scope labels,
// key=value (value quoted, or a column's unquoted *), the inner labels.
func (s *labelSet) appendMember(buf []byte, key string, value []byte) []byte {
	return appendLabels(buf, s.labels[:s.at], s.labels[s.at:], key, value)
}

// memberValue reports whether ls is the label list of a member of a column
// over s whose population is keyed key, and which member value it names.
func (s *labelSet) memberValue(ls Labels, key string) (string, bool) {
	if len(ls) != len(s.labels)+1 || ls[s.at].Key != key ||
		!slices.Equal(ls[:s.at], s.labels[:s.at]) || !slices.Equal(ls[s.at+1:], s.labels[s.at:]) {
		return "", false
	}
	return ls[s.at].Value, true
}

// store is the family set shared by a registry and all its scoped views.
type store struct {
	fams   []*Family
	byName map[string]*Family
	// keys interns label sets by their rendered form. Label keys are
	// trusted identifiers (they are not escaped in the rendered form), so
	// the rendered bytes identify the set.
	keys    map[string]*labelSet
	scratch []byte
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{s: &store{
		byName: make(map[string]*Family),
		keys:   make(map[string]*labelSet),
	}}
}

// Scoped returns a view of the same registry that prepends the given
// labels to every instance registered through it. Families are shared:
// a family registered through any view appears once, with instances from
// every scope. Scopes nest (scoping a scoped view concatenates labels).
func (r *Registry) Scoped(ls ...Label) *Registry {
	scope := make(Labels, 0, len(r.scope)+len(ls))
	scope = append(scope, r.scope...)
	scope = append(scope, ls...)
	return &Registry{s: r.s, scope: scope}
}

// family fetches or creates the named family, enforcing that every
// registration of the same name agrees on unit, help and kind — the
// property that makes the generated documentation trustworthy.
func (r *Registry) family(d Desc) *Family {
	if d.Name == "" {
		panic("metrics: empty metric name")
	}
	if f := r.s.byName[d.Name]; f != nil {
		if f.Desc != d {
			panic(fmt.Sprintf("metrics: %s re-registered with conflicting description (%+v vs %+v)",
				d.Name, f.Desc, d))
		}
		return f
	}
	f := &Family{Desc: d, idx: len(r.s.fams)}
	r.s.fams = append(r.s.fams, f)
	r.s.byName[d.Name] = f
	return f
}

var wildcard = []byte("*")

// intern returns the set of a single instance (popKey "") or of a column
// over a population keyed popKey.
func (s *store) intern(scope, ls Labels, popKey string) *labelSet {
	var value []byte
	if popKey != "" {
		value = wildcard
	}
	s.scratch = appendLabels(s.scratch[:0], scope, ls, popKey, value)
	if set, ok := s.keys[string(s.scratch)]; ok {
		return set
	}
	merged := make(Labels, 0, len(scope)+len(ls))
	merged = append(merged, scope...)
	merged = append(merged, ls...)
	set := &labelSet{key: string(s.scratch), labels: merged, at: len(scope)}
	s.keys[set.key] = set
	return set
}

// add registers a single instance (pop nil) or a column. The duplicate
// check is per column: a second registration of the same family, labels
// and population key panics, naming its first member, or the column when
// its population is empty. A single instance that is a member of a column
// of the family panics, as does a column with a member that is a single
// instance of it; the check sees the members present at registration, and
// members that join later are the population's to keep unique.
func (r *Registry) add(d Desc, pop *Population, ls Labels, src any) {
	f := r.family(d)
	popKey := ""
	if pop != nil {
		popKey = pop.Key
	}
	m := metric{set: r.s.intern(r.scope, ls, popKey), pop: pop, src: src}
	w, bit := f.idx/64, uint64(1)<<(f.idx%64)
	for len(m.set.fams) <= w {
		m.set.fams = append(m.set.fams, 0)
	}
	if m.set.fams[w]&bit != 0 {
		if m.members() == 0 {
			panic(fmt.Sprintf("metrics: duplicate column %s%s", d.Name, m.set.key))
		}
		panic(fmt.Sprintf("metrics: duplicate instance %s%s", d.Name, m.key(0)))
	}
	if i := f.member(&m); i >= 0 {
		panic(fmt.Sprintf("metrics: duplicate instance %s%s", d.Name, m.key(i)))
	}
	m.set.fams[w] |= bit
	if pop != nil {
		f.columns++
	}
	f.regs = append(f.regs, m)
}

// member returns the first member of m that is already an instance of f
// through a registration of the other form, -1 for none.
func (f *Family) member(m *metric) int {
	if m.pop == nil && f.columns == 0 {
		return -1
	}
	first := -1
	for k := range f.regs {
		o, j := &f.regs[k], -1
		switch {
		case m.pop == nil && o.pop != nil:
			j = min(o.memberOf(m.set.labels), 0) // a single instance is its member 0
		case m.pop != nil && o.pop == nil:
			j = m.memberOf(o.set.labels)
		}
		if j >= 0 && (first < 0 || j < first) {
			first = j
		}
	}
	return first
}

// memberOf returns the member of column c whose labels are ls, -1 for
// none.
func (c *metric) memberOf(ls Labels) int {
	if v, ok := c.set.memberValue(ls, c.pop.Key); ok {
		for j, n := 0, c.members(); j < n; j++ {
			if c.idIs(j, v) {
				return j
			}
		}
	}
	return -1
}

// Int registers an integer-valued instance (counter or gauge) whose value
// is read from fn at snapshot time.
func (r *Registry) Int(d Desc, ls Labels, fn func() int64) {
	if d.Kind == Summary {
		panic("metrics: Int registration with Summary kind")
	}
	r.add(d, nil, ls, fn)
}

// IntVar registers an integer-valued instance read directly from *v at
// snapshot time. This is the handle form: the owner keeps incrementing
// its own field and the registry never touches the hot path.
func (r *Registry) IntVar(d Desc, ls Labels, v *int64) {
	if d.Kind == Summary {
		panic("metrics: IntVar registration with Summary kind")
	}
	r.add(d, nil, ls, v)
}

// SecondsVar registers a duration-valued instance read directly from *v
// at snapshot time (see IntVar).
func (r *Registry) SecondsVar(d Desc, ls Labels, v *time.Duration) {
	if d.Kind == Summary {
		panic("metrics: SecondsVar registration with Summary kind")
	}
	if d.Unit == "" {
		d.Unit = "seconds"
	}
	r.add(d, nil, ls, v)
}

// HistSeconds registers a distribution whose Welford accumulator collected
// nanosecond samples (the simulators store time.Duration as float64);
// exported values are scaled to seconds.
func (r *Registry) HistSeconds(d Desc, ls Labels, fn func() stats.Welford) {
	d.Kind = Summary
	if d.Unit == "" {
		d.Unit = "seconds"
	}
	r.add(d, nil, ls, fn)
}

// HistSecondsVar registers a nanosecond-sample distribution read directly
// from *w at snapshot time (see HistSeconds and IntVar).
func (r *Registry) HistSecondsVar(d Desc, ls Labels, w *stats.Welford) {
	d.Kind = Summary
	if d.Unit == "" {
		d.Unit = "seconds"
	}
	r.add(d, nil, ls, w)
}

// IntColumn registers an integer-valued column over p: one instance per
// member, member i labelled by the scope, then p.Key="<p.ID(i)>", then
// inner, and read from fn(i) at snapshot time. It is what Int is for one
// member, and costs the registry the same whatever p's size.
func (r *Registry) IntColumn(d Desc, p *Population, inner Labels, fn func(i int) int64) {
	if d.Kind == Summary {
		panic("metrics: IntColumn registration with Summary kind")
	}
	r.add(d, column(p), inner, fn)
}

// SecondsColumn registers a duration-valued column over p (see IntColumn
// and SecondsVar).
func (r *Registry) SecondsColumn(d Desc, p *Population, inner Labels, fn func(i int) time.Duration) {
	if d.Kind == Summary {
		panic("metrics: SecondsColumn registration with Summary kind")
	}
	if d.Unit == "" {
		d.Unit = "seconds"
	}
	r.add(d, column(p), inner, fn)
}

// HistSecondsColumn registers a column of nanosecond-sample distributions
// over p (see IntColumn and HistSeconds).
func (r *Registry) HistSecondsColumn(d Desc, p *Population, inner Labels, fn func(i int) stats.Welford) {
	d.Kind = Summary
	if d.Unit == "" {
		d.Unit = "seconds"
	}
	r.add(d, column(p), inner, fn)
}

func column(p *Population) *Population {
	if p == nil || p.Key == "" {
		panic("metrics: column registration without a keyed population")
	}
	return p
}

// Families returns every family sorted by name (the documentation and
// export order).
func (r *Registry) Families() []*Family {
	out := make([]*Family, len(r.s.fams))
	copy(out, r.s.fams)
	slices.SortFunc(out, func(a, b *Family) int { return cmp.Compare(a.Desc.Name, b.Desc.Name) })
	return out
}

// Len returns the number of instances across all families.
func (r *Registry) Len() int {
	n := 0
	for _, f := range r.s.fams {
		n += f.Instances()
	}
	return n
}

// SumInt sums the named family's integer instances matching every selector
// label. Summing raw int64 values keeps registry projections bit-exact
// with direct counter loops, which is what lets the report tables read
// through the registry without perturbing golden outputs. Missing families
// sum to zero (a subsystem that never constructed is a subsystem with all
// counters at zero).
func (r *Registry) SumInt(name string, sel ...Label) int64 {
	f := r.s.byName[name]
	if f == nil {
		return 0
	}
	var sum int64
	for k := range f.regs {
		m := &f.regs[k]
		if !m.isInt() {
			continue
		}
		for i, n := 0, m.members(); i < n; i++ {
			if m.matches(sel, i) {
				sum += m.intVal(i)
			}
		}
	}
	return sum
}

// SumSeconds sums a duration family's instances matching the selectors.
func (r *Registry) SumSeconds(name string, sel ...Label) time.Duration {
	f := r.s.byName[name]
	if f == nil {
		return 0
	}
	var sum time.Duration
	for k := range f.regs {
		m := &f.regs[k]
		if !m.isDur() {
			continue
		}
		for i, n := 0, m.members(); i < n; i++ {
			if m.matches(sel, i) {
				sum += m.durVal(i)
			}
		}
	}
	return sum
}

// MaxSeconds returns the maximum over a duration family's matching
// instances (zero when none match).
func (r *Registry) MaxSeconds(name string, sel ...Label) time.Duration {
	f := r.s.byName[name]
	if f == nil {
		return 0
	}
	var max time.Duration
	for k := range f.regs {
		m := &f.regs[k]
		if !m.isDur() {
			continue
		}
		for i, n := 0, m.members(); i < n; i++ {
			if v := m.durVal(i); v > max && m.matches(sel, i) {
				max = v
			}
		}
	}
	return max
}

// Point is one exported value: a flat (name, labels, value) triple with
// summary instances already expanded into suffixed points.
type Point struct {
	Name   string
	Labels string
	Unit   string
	Kind   Kind
	// IsInt selects which of Int/Float carries the value. Integer points
	// print without a decimal point, keeping counter dumps exact.
	IsInt bool
	Int   int64
	Float float64
}

// appendValue appends the point's value: an integer exactly, a float as
// appendFloat renders it.
func (p *Point) appendValue(b []byte) []byte {
	if p.IsInt {
		return strconv.AppendInt(b, p.Int, 10)
	}
	return appendFloat(b, p.Float)
}

// summarySuffixes name a summary instance's points in export order; one
// with no samples exports the first four.
var summarySuffixes = [...]string{"_count", "_sum", "_mean", "_stddev", "_min", "_max"}

// exportFamily is the family an export walk is at: its description, its
// instances sorted by rendered labels, those labels rendered into one
// arena, and a summary's point names. A walk reuses one exportFamily for
// every family, so only one family's instances are held at a time.
type exportFamily struct {
	d     *Desc
	insts []instance
	arena []byte
	names [len(summarySuffixes)]string
}

// instance is member i of registration m; its rendered labels are the
// arena's bytes [off, end).
type instance struct {
	m        *metric
	i        int
	off, end int32
}

// reset makes e family f as it is now and reports whether f has an
// instance.
func (e *exportFamily) reset(f *Family) bool {
	e.d = &f.Desc
	e.insts, e.arena = slices.Grow(e.insts[:0], f.Instances()), e.arena[:0]
	for k := range f.regs {
		m := &f.regs[k]
		for i, n := 0, m.members(); i < n; i++ {
			off := int32(len(e.arena))
			e.arena = m.appendKey(e.arena, i)
			e.insts = append(e.insts, instance{m, i, off, int32(len(e.arena))})
		}
	}
	if len(e.insts) == 0 {
		return false
	}
	slices.SortFunc(e.insts, func(a, b instance) int {
		return bytes.Compare(e.arena[a.off:a.end], e.arena[b.off:b.end])
	})
	if f.Desc.Kind == Summary {
		for j, s := range summarySuffixes {
			e.names[j] = f.Desc.Name + s
		}
	}
	return true
}

// labels returns instance k's rendered labels, valid until the next reset.
func (e *exportFamily) labels(k int) []byte {
	return e.arena[e.insts[k].off:e.insts[k].end]
}

// points reads instance k now, fills ps with its points (Labels left
// empty) and returns how many: one for an integer or a duration, four for
// a summary with no samples, six for one with.
func (e *exportFamily) points(k int, ps *[len(summarySuffixes)]Point) int {
	in, d := &e.insts[k], e.d
	m := in.m
	switch {
	case m.isInt():
		ps[0] = Point{Name: d.Name, Unit: d.Unit, Kind: d.Kind, IsInt: true, Int: m.intVal(in.i)}
		return 1
	case m.isDur():
		ps[0] = Point{Name: d.Name, Unit: d.Unit, Kind: d.Kind, Float: m.durVal(in.i).Seconds()}
		return 1
	}
	w := m.sumVal(in.i)
	ps[0] = Point{Name: e.names[0], Unit: "samples", Kind: d.Kind, IsInt: true, Int: w.N()}
	for j, v := range [...]float64{w.Sum(), w.Mean(), w.Stddev(), w.Min(), w.Max()} {
		ps[j+1] = Point{Name: e.names[j+1], Unit: d.Unit, Kind: d.Kind, Float: v * summaryScale}
	}
	if w.N() == 0 {
		return 4
	}
	return len(ps)
}

// walk visits the families with an instance in name order, each with its
// instances in label order; fn's error ends the walk.
func (r *Registry) walk(fn func(e *exportFamily) error) error {
	var e exportFamily
	for _, f := range r.Families() {
		if !e.reset(f) {
			continue
		}
		if err := fn(&e); err != nil {
			return err
		}
	}
	return nil
}

// Snapshot reads every instance now and returns the flat point list,
// sorted by (name, labels) — summaries expanded, durations in seconds. It
// collects the walk the exports stream, so it is the one reader that
// holds every point at once.
func (r *Registry) Snapshot() []Point {
	var out []Point
	var ps [len(summarySuffixes)]Point
	r.walk(func(e *exportFamily) error {
		for k := range e.insts {
			labels := string(e.labels(k))
			for _, p := range ps[:e.points(k, &ps)] {
				p.Labels = labels
				out = append(out, p)
			}
		}
		return nil
	})
	return out
}
