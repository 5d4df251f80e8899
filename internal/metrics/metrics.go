package metrics

import (
	"cmp"
	"fmt"
	"slices"
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
	return string(appendLabelSet(nil, nil, ls))
}

// appendLabelSet renders the concatenation of two label sets into buf —
// the same bytes Labels.String produces for the combined set, without
// allocating. Registration renders scope+instance labels through this
// into the store's scratch buffer and interns the result.
func appendLabelSet(buf []byte, scope, ls Labels) []byte {
	if len(scope)+len(ls) == 0 {
		return buf
	}
	buf = append(buf, '{')
	for i, l := range scope {
		buf = appendLabel(buf, l, i > 0)
	}
	for i, l := range ls {
		buf = appendLabel(buf, l, len(scope)+i > 0)
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

// metric is one registered instance: a family member with a concrete
// label set and a read-at-snapshot-time view over the owner's counter.
// The value source is either a direct pointer into the owner's counter
// (the Var registrations — the hot path stays a plain field increment and
// the registry costs nothing per event) or a closure (for values that
// must be computed at snapshot time).
type metric struct {
	set *labelSet
	// src is the registered *int64, *time.Duration, *stats.Welford,
	// func() int64 or func() stats.Welford; its type is the instance's
	// value type.
	src any
}

// summaryScale multiplies summary sample values at export: every
// registered distribution is a Welford accumulator that collected
// nanoseconds (the simulators store time.Duration as float64) and
// exports seconds.
const summaryScale = 1e-9

func (m *metric) isInt() bool {
	switch m.src.(type) {
	case *int64, func() int64:
		return true
	}
	return false
}

func (m *metric) isDur() bool {
	_, ok := m.src.(*time.Duration)
	return ok
}

func (m *metric) intVal() int64 {
	if p, ok := m.src.(*int64); ok {
		return *p
	}
	return m.src.(func() int64)()
}

func (m *metric) durVal() time.Duration { return *m.src.(*time.Duration) }

func (m *metric) sumVal() stats.Welford {
	if p, ok := m.src.(*stats.Welford); ok {
		return *p
	}
	return m.src.(func() stats.Welford)()
}

// Family is one named metric with all its registered instances.
type Family struct {
	Desc      Desc
	idx       int // position in the store's families, its bit in a labelSet's fams
	instances []metric
}

// Instances returns the number of registered instances.
func (f *Family) Instances() int { return len(f.instances) }

// LabelKeys returns the label key sets in use by the family's instances,
// deduplicated and sorted (normally a single entry, e.g. "client,scope").
func (f *Family) LabelKeys() []string {
	seen := map[string]bool{}
	var out []string
	for _, m := range f.instances {
		keys := make([]string, len(m.set.labels))
		for i, l := range m.set.labels {
			keys[i] = l.Key
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

// labelSet is one interned rendered label set shared by every instance
// registered with the same effective (scope + instance) labels. A
// thousand families with a client="7" instance share one key string and
// one canonical Labels slice instead of re-rendering a thousand copies.
type labelSet struct {
	key    string
	labels Labels
	// fams has bit Family.idx set once the family has an instance with
	// this set: the duplicate check, O(1) per registration so that a
	// million-client registry is not quadratic to build.
	fams []uint64
}

// store is the family set shared by a registry and all its scoped views.
type store struct {
	fams   []*Family
	byName map[string]*Family
	// keys interns rendered label sets by their rendered form. Label keys
	// are trusted identifiers (they are not escaped in the rendered form),
	// so the rendered bytes identify the set.
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

func (s *store) intern(scope, ls Labels) *labelSet {
	s.scratch = appendLabelSet(s.scratch[:0], scope, ls)
	if set, ok := s.keys[string(s.scratch)]; ok {
		return set
	}
	merged := make(Labels, 0, len(scope)+len(ls))
	merged = append(merged, scope...)
	merged = append(merged, ls...)
	set := &labelSet{key: string(s.scratch), labels: merged}
	s.keys[set.key] = set
	return set
}

func (r *Registry) add(d Desc, ls Labels, src any) {
	f := r.family(d)
	set := r.s.intern(r.scope, ls)
	w, bit := f.idx/64, uint64(1)<<(f.idx%64)
	for len(set.fams) <= w {
		set.fams = append(set.fams, 0)
	}
	if set.fams[w]&bit != 0 {
		panic(fmt.Sprintf("metrics: duplicate instance %s%s", d.Name, set.key))
	}
	set.fams[w] |= bit
	f.instances = append(f.instances, metric{set: set, src: src})
}

// Int registers an integer-valued instance (counter or gauge) whose value
// is read from fn at snapshot time.
func (r *Registry) Int(d Desc, ls Labels, fn func() int64) {
	if d.Kind == Summary {
		panic("metrics: Int registration with Summary kind")
	}
	r.add(d, ls, fn)
}

// IntVar registers an integer-valued instance read directly from *v at
// snapshot time. This is the handle form: the owner keeps incrementing
// its own field and the registry never touches the hot path.
func (r *Registry) IntVar(d Desc, ls Labels, v *int64) {
	if d.Kind == Summary {
		panic("metrics: IntVar registration with Summary kind")
	}
	r.add(d, ls, v)
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
	r.add(d, ls, v)
}

// HistSeconds registers a distribution whose Welford accumulator collected
// nanosecond samples (the simulators store time.Duration as float64);
// exported values are scaled to seconds.
func (r *Registry) HistSeconds(d Desc, ls Labels, fn func() stats.Welford) {
	d.Kind = Summary
	if d.Unit == "" {
		d.Unit = "seconds"
	}
	r.add(d, ls, fn)
}

// HistSecondsVar registers a nanosecond-sample distribution read directly
// from *w at snapshot time (see HistSeconds and IntVar).
func (r *Registry) HistSecondsVar(d Desc, ls Labels, w *stats.Welford) {
	d.Kind = Summary
	if d.Unit == "" {
		d.Unit = "seconds"
	}
	r.add(d, ls, w)
}

// Families returns every family sorted by name (the documentation and
// export order).
func (r *Registry) Families() []*Family {
	out := make([]*Family, len(r.s.fams))
	copy(out, r.s.fams)
	slices.SortFunc(out, func(a, b *Family) int { return cmp.Compare(a.Desc.Name, b.Desc.Name) })
	return out
}

// Len returns the number of registered instances across all families.
func (r *Registry) Len() int {
	n := 0
	for _, f := range r.s.fams {
		n += len(f.instances)
	}
	return n
}

// matches reports whether the instance carries every selector pair.
func (m *metric) matches(sel []Label) bool {
	for _, s := range sel {
		found := false
		for _, l := range m.set.labels {
			if l.Key == s.Key && l.Value == s.Value {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
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
	for _, m := range f.instances {
		if !m.isInt() || !m.matches(sel) {
			continue
		}
		sum += m.intVal()
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
	for _, m := range f.instances {
		if !m.isDur() || !m.matches(sel) {
			continue
		}
		sum += m.durVal()
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
	for _, m := range f.instances {
		if !m.isDur() || !m.matches(sel) {
			continue
		}
		if v := m.durVal(); v > max {
			max = v
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

// Value renders the point's value deterministically.
func (p Point) Value() string {
	if p.IsInt {
		return fmt.Sprintf("%d", p.Int)
	}
	return formatFloat(p.Float)
}

// Snapshot reads every instance now and returns the flat point list,
// sorted by (name, labels) — summaries expanded, durations in seconds.
func (r *Registry) Snapshot() []Point {
	var out []Point
	for _, f := range r.Families() {
		insts := slices.Clone(f.instances)
		slices.SortFunc(insts, func(a, b metric) int { return cmp.Compare(a.set.key, b.set.key) })
		for _, m := range insts {
			out = append(out, m.points(f.Desc)...)
		}
	}
	return out
}

// points expands one instance into its exported points.
func (m *metric) points(d Desc) []Point {
	base := Point{Name: d.Name, Labels: m.set.key, Unit: d.Unit, Kind: d.Kind}
	switch {
	case m.isInt():
		base.IsInt = true
		base.Int = m.intVal()
		return []Point{base}
	case m.isDur():
		base.Float = m.durVal().Seconds()
		return []Point{base}
	default:
		w := m.sumVal()
		mk := func(suffix, unit string, isInt bool, iv int64, fv float64) Point {
			return Point{Name: d.Name + suffix, Labels: m.set.key, Unit: unit, Kind: d.Kind,
				IsInt: isInt, Int: iv, Float: fv}
		}
		pts := []Point{
			mk("_count", "samples", true, w.N(), 0),
			mk("_sum", d.Unit, false, 0, w.Sum()*summaryScale),
			mk("_mean", d.Unit, false, 0, w.Mean()*summaryScale),
			mk("_stddev", d.Unit, false, 0, w.Stddev()*summaryScale),
		}
		if w.N() > 0 {
			pts = append(pts,
				mk("_min", d.Unit, false, 0, w.Min()*summaryScale),
				mk("_max", d.Unit, false, 0, w.Max()*summaryScale))
		}
		return pts
	}
}
