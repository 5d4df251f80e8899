package metrics

import (
	"cmp"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"spritefs/internal/stats"
)

// referenceRegistry is the reference model of Registry: the layout it
// replaced, in which every instance is its own struct, carrying a copy of its label set, five value fields of which one is
// set, and each family a map from rendered labels to instance for the
// duplicate check. A column is its members registered as single instances,
// one more each time the fuzzer grows its population, each reading the
// column at its member's current position. It shares the label rendering
// and the point format with Registry; everything that stores, finds and
// reads instances is its own.
type referenceRegistry struct {
	s     *refStore
	scope Labels
}

type refMetric struct {
	labels Labels
	key    string

	intPtr *int64
	durPtr *time.Duration
	sumPtr *stats.Welford
	intFn  func() int64
	durFn  func() time.Duration
	sumFn  func() stats.Welford
}

func (m *refMetric) isInt() bool { return m.intPtr != nil || m.intFn != nil }
func (m *refMetric) isDur() bool { return m.durPtr != nil || m.durFn != nil }

func (m *refMetric) intVal() int64 {
	if m.intPtr != nil {
		return *m.intPtr
	}
	return m.intFn()
}

func (m *refMetric) durVal() time.Duration {
	if m.durPtr != nil {
		return *m.durPtr
	}
	return m.durFn()
}

func (m *refMetric) sumVal() stats.Welford {
	if m.sumPtr != nil {
		return *m.sumPtr
	}
	return m.sumFn()
}

type refFamily struct {
	Desc      Desc
	instances []*refMetric
	byKey     map[string]*refMetric
	columns   []*refColumn
}

// refColumn is one column registration: its members are single instances
// of its family, registered as the population grows.
type refColumn struct {
	f     *refFamily
	scope Labels
	pop   *fuzzPop
	inner Labels
	// member makes member id's instance, reading the column at id's
	// position in the population when it is read.
	member func(m *refMetric, id int64)
}

func (c *refColumn) key(id int64) string {
	var v []byte
	v = quotedID(v, id)
	return string(appendLabels(nil, c.scope, c.inner, c.pop.p.Key, v))
}

func (f *refFamily) Instances() int { return len(f.instances) }

func (f *refFamily) LabelKeys() []string {
	seen := map[string]bool{}
	var out []string
	for _, m := range f.instances {
		keys := make([]string, len(m.labels))
		for i, l := range m.labels {
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

type refLabelSet struct {
	key    string
	labels Labels
}

type refStore struct {
	fams    []*refFamily
	byName  map[string]*refFamily
	keys    map[string]*refLabelSet
	scratch []byte
}

func newReferenceRegistry() *referenceRegistry {
	return &referenceRegistry{s: &refStore{
		byName: make(map[string]*refFamily),
		keys:   make(map[string]*refLabelSet),
	}}
}

func (r *referenceRegistry) Scoped(ls ...Label) *referenceRegistry {
	scope := make(Labels, 0, len(r.scope)+len(ls))
	scope = append(scope, r.scope...)
	scope = append(scope, ls...)
	return &referenceRegistry{s: r.s, scope: scope}
}

func (r *referenceRegistry) family(d Desc) *refFamily {
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
	f := &refFamily{Desc: d}
	r.s.fams = append(r.s.fams, f)
	r.s.byName[d.Name] = f
	return f
}

func (s *refStore) intern(scope, ls Labels) *refLabelSet {
	s.scratch = appendLabels(s.scratch[:0], scope, ls, "", nil)
	if set, ok := s.keys[string(s.scratch)]; ok {
		return set
	}
	merged := make(Labels, 0, len(scope)+len(ls))
	merged = append(merged, scope...)
	merged = append(merged, ls...)
	set := &refLabelSet{key: string(s.scratch), labels: merged}
	s.keys[set.key] = set
	return set
}

func (r *referenceRegistry) add(d Desc, ls Labels) *refMetric {
	f := r.family(d)
	set := r.s.intern(r.scope, ls)
	if f.byKey[set.key] != nil {
		panic(fmt.Sprintf("metrics: duplicate instance %s%s", d.Name, set.key))
	}
	return f.insert(set)
}

func (f *refFamily) insert(set *refLabelSet) *refMetric {
	m := &refMetric{labels: set.labels, key: set.key}
	if f.byKey == nil {
		f.byKey = make(map[string]*refMetric)
	}
	f.byKey[m.key] = m
	f.instances = append(f.instances, m)
	return m
}

// column registers a column over pop: a column with the same scope,
// population and inner labels panics, naming its first member or, when
// the population is empty, the column; otherwise every member is
// registered, and the first one already an instance panics before any is.
func (r *referenceRegistry) column(d Desc, pop *fuzzPop, inner Labels, member func(m *refMetric, id int64)) {
	f := r.family(d)
	c := &refColumn{f: f, scope: r.scope, pop: pop, inner: inner, member: member}
	for _, o := range f.columns {
		if slices.Equal(o.scope, c.scope) && o.pop.p.Key == pop.p.Key && slices.Equal(o.inner, c.inner) {
			if len(pop.ids) == 0 {
				panic(fmt.Sprintf("metrics: duplicate column %s%s", d.Name,
					appendLabels(nil, c.scope, c.inner, pop.p.Key, []byte("*"))))
			}
			panic(fmt.Sprintf("metrics: duplicate instance %s%s", d.Name, c.key(pop.ids[0])))
		}
	}
	for _, id := range pop.ids {
		if k := c.key(id); f.byKey[k] != nil {
			panic(fmt.Sprintf("metrics: duplicate instance %s%s", d.Name, k))
		}
	}
	f.columns = append(f.columns, c)
	for _, id := range pop.ids {
		c.join(r.s, id)
	}
}

// join registers member id of c.
func (c *refColumn) join(s *refStore, id int64) {
	ls := append(append(slices.Clone(c.scope), L(c.pop.p.Key, strconv.FormatInt(id, 10))), c.inner...)
	c.member(c.f.insert(s.intern(nil, ls)), id)
}

// grow adds id to pop and registers it in every column over pop, unless it
// is a member already or one of its instances would collide with an
// existing one, which the registry cannot see (the population grows
// without it): then it reports false and changes nothing.
func (r *referenceRegistry) grow(pop *fuzzPop, id int64) bool {
	if slices.Contains(pop.ids, id) {
		return false
	}
	var cols []*refColumn
	for _, f := range r.s.fams {
		for _, c := range f.columns {
			if c.pop == pop {
				if f.byKey[c.key(id)] != nil {
					return false
				}
				cols = append(cols, c)
			}
		}
	}
	pop.add(id)
	for _, c := range cols {
		c.join(r.s, id)
	}
	return true
}

// IntColumn, SecondsColumn and HistSecondsColumn mirror Registry's: member
// id reads fn at id's position when read.
func (r *referenceRegistry) IntColumn(d Desc, pop *fuzzPop, inner Labels, fn func(i int) int64) {
	if d.Kind == Summary {
		panic("metrics: IntColumn registration with Summary kind")
	}
	r.column(d, pop, inner, func(m *refMetric, id int64) { m.intFn = func() int64 { return fn(pop.pos(id)) } })
}

func (r *referenceRegistry) SecondsColumn(d Desc, pop *fuzzPop, inner Labels, fn func(i int) time.Duration) {
	if d.Kind == Summary {
		panic("metrics: SecondsColumn registration with Summary kind")
	}
	if d.Unit == "" {
		d.Unit = "seconds"
	}
	r.column(d, pop, inner, func(m *refMetric, id int64) { m.durFn = func() time.Duration { return fn(pop.pos(id)) } })
}

func (r *referenceRegistry) HistSecondsColumn(d Desc, pop *fuzzPop, inner Labels, fn func(i int) stats.Welford) {
	d.Kind = Summary
	if d.Unit == "" {
		d.Unit = "seconds"
	}
	r.column(d, pop, inner, func(m *refMetric, id int64) { m.sumFn = func() stats.Welford { return fn(pop.pos(id)) } })
}

func (r *referenceRegistry) Int(d Desc, ls Labels, fn func() int64) {
	if d.Kind == Summary {
		panic("metrics: Int registration with Summary kind")
	}
	r.add(d, ls).intFn = fn
}

func (r *referenceRegistry) IntVar(d Desc, ls Labels, v *int64) {
	if d.Kind == Summary {
		panic("metrics: IntVar registration with Summary kind")
	}
	r.add(d, ls).intPtr = v
}

func (r *referenceRegistry) SecondsVar(d Desc, ls Labels, v *time.Duration) {
	if d.Kind == Summary {
		panic("metrics: SecondsVar registration with Summary kind")
	}
	if d.Unit == "" {
		d.Unit = "seconds"
	}
	r.add(d, ls).durPtr = v
}

func (r *referenceRegistry) HistSeconds(d Desc, ls Labels, fn func() stats.Welford) {
	d.Kind = Summary
	if d.Unit == "" {
		d.Unit = "seconds"
	}
	r.add(d, ls).sumFn = fn
}

func (r *referenceRegistry) HistSecondsVar(d Desc, ls Labels, w *stats.Welford) {
	d.Kind = Summary
	if d.Unit == "" {
		d.Unit = "seconds"
	}
	r.add(d, ls).sumPtr = w
}

func (r *referenceRegistry) Families() []*refFamily {
	out := make([]*refFamily, len(r.s.fams))
	copy(out, r.s.fams)
	slices.SortFunc(out, func(a, b *refFamily) int { return cmp.Compare(a.Desc.Name, b.Desc.Name) })
	return out
}

func (r *referenceRegistry) Len() int {
	n := 0
	for _, f := range r.s.fams {
		n += len(f.instances)
	}
	return n
}

func (m *refMetric) matches(sel []Label) bool {
	for _, s := range sel {
		found := false
		for _, l := range m.labels {
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

func (r *referenceRegistry) SumInt(name string, sel ...Label) int64 {
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

func (r *referenceRegistry) SumSeconds(name string, sel ...Label) time.Duration {
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

func (r *referenceRegistry) MaxSeconds(name string, sel ...Label) time.Duration {
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

func (r *referenceRegistry) Snapshot() []Point {
	var out []Point
	for _, f := range r.Families() {
		insts := make([]*refMetric, len(f.instances))
		copy(insts, f.instances)
		slices.SortFunc(insts, func(a, b *refMetric) int { return cmp.Compare(a.key, b.key) })
		for _, m := range insts {
			out = append(out, m.points(f.Desc)...)
		}
	}
	return out
}

func (m *refMetric) points(d Desc) []Point {
	base := Point{Name: d.Name, Labels: m.key, Unit: d.Unit, Kind: d.Kind}
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
			return Point{Name: d.Name + suffix, Labels: m.key, Unit: unit, Kind: d.Kind,
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

// refValue renders a point's value: an integer with %d, a float as the
// shortest decimal that round-trips.
func refValue(p Point) string {
	if p.IsInt {
		return fmt.Sprintf("%d", p.Int)
	}
	return formatFloat(p.Float)
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// refFamMeta is the per-family header a Prometheus dump needs, recovered
// from a point (summaries expand to suffixed names that share a family).
type refFamMeta struct{ name, help, promType string }

func refFamilyOf(p Point) refFamMeta {
	name := p.Name
	if p.Kind == Summary {
		for _, s := range []string{"_count", "_sum", "_mean", "_stddev", "_min", "_max"} {
			if strings.HasSuffix(name, s) {
				name = strings.TrimSuffix(name, s)
				break
			}
		}
		return refFamMeta{name: name, help: "(summary; see docs/METRICS.md)", promType: "untyped"}
	}
	t := "gauge"
	if p.Kind == Counter {
		t = "counter"
	}
	return refFamMeta{name: name, help: "(unit: " + p.Unit + "; see docs/METRICS.md)", promType: t}
}

func (r *referenceRegistry) WritePrometheus(w io.Writer) error {
	var lastFam string
	for _, p := range r.Snapshot() {
		fam := refFamilyOf(p)
		if fam.name != lastFam {
			lastFam = fam.name
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n",
				fam.name, fam.help, fam.name, fam.promType); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s%s %s\n", p.Name, p.Labels, refValue(p)); err != nil {
			return err
		}
	}
	return nil
}

func (r *referenceRegistry) WriteTSV(w io.Writer) error {
	if _, err := io.WriteString(w, "metric\tlabels\tunit\tvalue\n"); err != nil {
		return err
	}
	for _, p := range r.Snapshot() {
		labels := p.Labels
		if labels == "" {
			labels = "-"
		}
		if _, err := fmt.Fprintf(w, "%s\t%s\t%s\t%s\n", p.Name, labels, p.Unit, refValue(p)); err != nil {
			return err
		}
	}
	return nil
}

func (r *referenceRegistry) WriteJSONL(w io.Writer) error {
	for _, p := range r.Snapshot() {
		if _, err := fmt.Fprintf(w, "{\"name\":%q,\"labels\":%q,\"unit\":%q,\"value\":%s}\n",
			p.Name, p.Labels, p.Unit, refValue(p)); err != nil {
			return err
		}
	}
	return nil
}

// refSampler is the reference model of Sampler, over a referenceRegistry:
// each column holds its instance's pointer.
type refSampler struct {
	reg  *referenceRegistry
	cols []refCol
	rows []row
	seen int
	fams []refCursor
}

type refCursor struct {
	f *refFamily
	n int
}

type refCol struct {
	f *refFamily
	m *refMetric
}

func (s *refSampler) Sample(now time.Duration) {
	for _, f := range s.reg.s.fams[s.seen:] {
		if f.Desc.Kind != Summary {
			s.fams = append(s.fams, refCursor{f: f})
		}
	}
	s.seen = len(s.reg.s.fams)
	for i := range s.fams {
		fc := &s.fams[i]
		for _, m := range fc.f.instances[fc.n:] {
			s.cols = append(s.cols, refCol{fc.f, m})
		}
		fc.n = len(fc.f.instances)
	}
	vals := make([]float64, len(s.cols))
	for i, c := range s.cols {
		if c.m.isInt() {
			vals[i] = float64(c.m.intVal())
		} else {
			vals[i] = c.m.durVal().Seconds()
		}
	}
	s.rows = append(s.rows, row{t: now, v: vals})
}

func (s *refSampler) WriteTSV(w io.Writer) error {
	cols := make([]int, len(s.cols))
	for i := range cols {
		cols[i] = i
	}
	slices.SortFunc(cols, func(a, b int) int {
		ca, cb := s.cols[a], s.cols[b]
		if c := cmp.Compare(ca.f.Desc.Name, cb.f.Desc.Name); c != 0 {
			return c
		}
		return cmp.Compare(ca.m.key, cb.m.key)
	})
	var b strings.Builder
	b.WriteString("time_seconds")
	for _, ci := range cols {
		b.WriteByte('\t')
		b.WriteString(s.cols[ci].f.Desc.Name)
		b.WriteString(s.cols[ci].m.key)
	}
	b.WriteByte('\n')
	for _, r := range s.rows {
		b.WriteString(formatFloat(r.t.Seconds()))
		for _, ci := range cols {
			b.WriteByte('\t')
			if ci < len(r.v) {
				b.WriteString(formatFloat(r.v[ci]))
			} else {
				b.WriteByte('-')
			}
		}
		b.WriteByte('\n')
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// fuzzFamilies is how many families FuzzRegistry draws from: more than one
// 64-bit word's worth, so registrations reach past a set's first word.
const fuzzFamilies = 70

// fuzzDesc is family i's description, fixed per family so that only a
// registration form that disagrees with it (an Int on a summary, a
// summary over a counter) conflicts.
func fuzzDesc(i int) Desc {
	d := Desc{Name: fmt.Sprintf("f%02d_total", i), Unit: "ops", Help: "h", Kind: Kind(i % 3)}
	if i%5 == 0 {
		d.Unit = "" // the Seconds and Hist forms fill it in
	}
	return d
}

// fuzzScopes and fuzzLabels are the views and instance label sets a
// registration draws from: nested scopes, and sets that share the scope's
// keys and values with one another and with the members of the columns
// over fuzzPops (client="1" is one). fuzzInner are the columns' inner label
// sets.
var (
	fuzzScopes = [][]Label{nil, {L("shard", "0")}, {L("shard", "1")}, {L("shard", "0"), L("site", "1")}}
	fuzzLabels = []Labels{
		nil,
		{L("client", "1")},
		{L("client", "2")},
		{L("client", "1"), L("scope", "all")},
		{L("client", "4"), L("reason", "x\"y")},
		{L("shard", "1")},
		{L("server", "3")},
	}
	fuzzInner = []Labels{
		nil,
		{L("scope", "all")},
		{L("scope", "migrated")},
		{L("reason", "x\"y")},
		{L("scope", "all"), L("reason", "delay")},
	}
	fuzzSelectors = [][]Label{
		nil, {L("client", "1")}, {L("shard", "0")}, {L("scope", "all")},
		{L("client", "1"), L("shard", "1")}, {L("site", "1")},
		{L("client", "4"), L("scope", "all")}, {L("server", "3")},
		{L("reason", "x\"y")}, {L("client", "x")},
	}
)

// fuzzPop is a population the fuzzer grows: ids in the order a slice of
// workstations would hold them, ascending, so a new id lands at the end or
// in the middle.
type fuzzPop struct {
	ids []int64
	p   *Population
}

func newFuzzPop(key string, ids ...int64) *fuzzPop {
	fp := &fuzzPop{ids: ids}
	fp.p = &Population{Key: key, Len: func() int { return len(fp.ids) }, ID: func(i int) int64 { return fp.ids[i] }}
	return fp
}

func (fp *fuzzPop) add(id int64) {
	i, _ := slices.BinarySearch(fp.ids, id)
	fp.ids = slices.Insert(fp.ids, i, id)
}

func (fp *fuzzPop) pos(id int64) int { return slices.Index(fp.ids, id) }

// fuzzVars are the counters both registries read: one registration binds
// slot n%len of its kind, a column member slot (n+id)%len, and a bump op
// writes a slot.
type fuzzVars struct {
	ints [16]int64
	durs [16]time.Duration
	sums [16]stats.Welford
}

// registryPair drives a Registry and a referenceRegistry through the same
// operations.
type registryPair struct {
	got     *Registry
	want    *referenceRegistry
	gotS    *Sampler
	wantS   *refSampler
	vars    *fuzzVars
	pops    [2]*fuzzPop
	now     time.Duration
	touched map[string]bool
}

func newRegistryPair() *registryPair {
	p := &registryPair{got: New(), want: newReferenceRegistry(), vars: new(fuzzVars), touched: map[string]bool{},
		pops: [2]*fuzzPop{newFuzzPop("client", 1, 4), newFuzzPop("server")}}
	p.gotS = NewSampler(p.got, nil)
	p.wantS = &refSampler{reg: p.want}
	return p
}

// catch runs reg and returns its panic, "" for none.
func catch(reg func()) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	reg()
	return ""
}

// register makes one registration through both registries and returns
// each one's panic, "" for none.
func (p *registryPair) register(form, fam, scope, labels, slot int) (gotPanic, wantPanic string) {
	d, sc, ls := fuzzDesc(fam), fuzzScopes[scope], fuzzLabels[labels]
	v := p.vars
	g, w := p.got.Scoped(sc...), p.want.Scoped(sc...)
	switch form {
	case 0:
		fn := func() int64 { return v.ints[slot] * 3 }
		gotPanic, wantPanic = catch(func() { g.Int(d, ls, fn) }), catch(func() { w.Int(d, ls, fn) })
	case 1:
		gotPanic = catch(func() { g.IntVar(d, ls, &v.ints[slot]) })
		wantPanic = catch(func() { w.IntVar(d, ls, &v.ints[slot]) })
	case 2:
		gotPanic = catch(func() { g.SecondsVar(d, ls, &v.durs[slot]) })
		wantPanic = catch(func() { w.SecondsVar(d, ls, &v.durs[slot]) })
	case 3:
		fn := func() stats.Welford { return v.sums[slot] }
		gotPanic, wantPanic = catch(func() { g.HistSeconds(d, ls, fn) }), catch(func() { w.HistSeconds(d, ls, fn) })
	default:
		gotPanic = catch(func() { g.HistSecondsVar(d, ls, &v.sums[slot]) })
		wantPanic = catch(func() { w.HistSecondsVar(d, ls, &v.sums[slot]) })
	}
	p.touched[d.Name] = true
	return gotPanic, wantPanic
}

// registerColumn makes one column registration over population pop
// through both registries and returns each one's panic. Member i reads a
// slot picked by its id, so a value follows its member when the
// population inserts before it.
func (p *registryPair) registerColumn(form, fam, scope, pop, inner, slot int) (gotPanic, wantPanic string) {
	d, sc, in, fp := fuzzDesc(fam), fuzzScopes[scope], fuzzInner[inner], p.pops[pop]
	v := p.vars
	g, w := p.got.Scoped(sc...), p.want.Scoped(sc...)
	at := func(i int) int { return (slot + int(fp.ids[i])) % 16 }
	switch form {
	case 0:
		fn := func(i int) int64 { return v.ints[at(i)] * (fp.ids[i] + 1) }
		gotPanic = catch(func() { g.IntColumn(d, fp.p, in, fn) })
		wantPanic = catch(func() { w.IntColumn(d, fp, in, fn) })
	case 1:
		fn := func(i int) time.Duration { return v.durs[at(i)] * time.Duration(fp.ids[i]+1) }
		gotPanic = catch(func() { g.SecondsColumn(d, fp.p, in, fn) })
		wantPanic = catch(func() { w.SecondsColumn(d, fp, in, fn) })
	default:
		fn := func(i int) stats.Welford { return v.sums[at(i)] }
		gotPanic = catch(func() { g.HistSecondsColumn(d, fp.p, in, fn) })
		wantPanic = catch(func() { w.HistSecondsColumn(d, fp, in, fn) })
	}
	p.touched[d.Name] = true
	return gotPanic, wantPanic
}

// diff compares everything the two registries and samplers report and
// returns the first difference, "" for none.
func (p *registryPair) diff() string {
	dump := func(write func(io.Writer) error) string {
		var b strings.Builder
		if err := write(&b); err != nil {
			return "error: " + err.Error()
		}
		return b.String()
	}
	for _, c := range []struct {
		what      string
		got, want string
	}{
		{"WriteTSV", dump(p.got.WriteTSV), dump(p.want.WriteTSV)},
		{"WritePrometheus", dump(p.got.WritePrometheus), dump(p.want.WritePrometheus)},
		{"WriteJSONL", dump(p.got.WriteJSONL), dump(p.want.WriteJSONL)},
		{"sampler WriteTSV", dump(p.gotS.WriteTSV), dump(p.wantS.WriteTSV)},
	} {
		if c.got != c.want {
			return fmt.Sprintf("%s:\n got %q\nwant %q", c.what, c.got, c.want)
		}
	}
	if g, w := p.got.Len(), p.want.Len(); g != w {
		return fmt.Sprintf("Len: got %d, want %d", g, w)
	}
	gf, wf := p.got.Families(), p.want.Families()
	if len(gf) != len(wf) {
		return fmt.Sprintf("Families: got %d, want %d", len(gf), len(wf))
	}
	for i := range gf {
		if gf[i].Desc != wf[i].Desc || gf[i].Instances() != wf[i].Instances() ||
			!slices.Equal(gf[i].LabelKeys(), wf[i].LabelKeys()) {
			return fmt.Sprintf("family %d: got %+v %d %v, want %+v %d %v", i,
				gf[i].Desc, gf[i].Instances(), gf[i].LabelKeys(), wf[i].Desc, wf[i].Instances(), wf[i].LabelKeys())
		}
	}
	for name := range p.touched {
		for _, sel := range fuzzSelectors {
			if g, w := p.got.SumInt(name, sel...), p.want.SumInt(name, sel...); g != w {
				return fmt.Sprintf("SumInt(%s, %v): got %d, want %d", name, sel, g, w)
			}
			if g, w := p.got.SumSeconds(name, sel...), p.want.SumSeconds(name, sel...); g != w {
				return fmt.Sprintf("SumSeconds(%s, %v): got %v, want %v", name, sel, g, w)
			}
			if g, w := p.got.MaxSeconds(name, sel...), p.want.MaxSeconds(name, sel...); g != w {
				return fmt.Sprintf("MaxSeconds(%s, %v): got %v, want %v", name, sel, g, w)
			}
		}
	}
	return ""
}

// FuzzRegistry: under any sequence of registrations (single instances and
// columns), population growth, counter bumps, samples and snapshots,
// Registry and its Sampler report exactly what the reference model does,
// and the same registrations panic with the same text.
//
// Each operation is three bytes: op, then two arguments.
//
//	op%8 == 0, 1: register an instance; op/8 picks the form (5) and the
//	              scope (4), a the family (fuzzFamilies), b the label set
//	              and the slot
//	op%8 == 2:    bump slot a%16 of each kind by b
//	op%8 == 3, 7: sample both samplers, then compare everything
//	op%8 == 4, 5: register a column; op/8 picks the form (3), the scope (4)
//	              and the population (2), a the family, b the inner labels
//	              and the slot
//	op%8 == 6:    grow population a%2 by id b%10 (at its place in id order:
//	              an append or an insert in the middle), unless the id is a
//	              member already or the growth would collide
func FuzzRegistry(f *testing.F) {
	f.Add([]byte{})
	// One instance, a duplicate of it, the same labels in another scope.
	f.Add([]byte{1 << 3, 0, 1, 1 << 3, 0, 1, 5 << 3, 0, 1, 2, 0, 7, 3, 0, 0})
	// Every form over families past the first 64, bumped and sampled twice.
	f.Add([]byte{
		0, 64, 1, 1 << 3, 65, 2, 2 << 3, 66, 3, 3 << 3, 67, 4, 4 << 3, 68, 0,
		3, 0, 0, 2, 0, 9, 2, 1, 200, 3, 0, 0,
		1 << 3, 1, 1, 0, 2, 1, 3, 0, 0,
	})
	// A client column, sampled; clients 9 (an append) and 2 and 0 (middle
	// inserts) join, bumped and sampled again; then a duplicate column, a
	// single instance that is a member, a column over the empty server
	// population registered twice, and a column with two inner labels
	// whose population grows.
	f.Add([]byte{
		4, 3, 1, 1<<3 | 4, 7, 16, 2<<3 | 4, 8, 2, 3, 0, 0,
		6, 0, 9, 2, 5, 3, 6, 0, 2, 6, 0, 0, 2, 3, 4, 7, 0, 0,
		4, 3, 1, 9, 3, 3, 12<<3 | 4, 10, 0, 12<<3 | 4, 10, 0,
		6, 1, 3, 2, 6, 6, 3, 0, 0,
		4, 15, 4, 6, 0, 3, 2, 15, 5, 3, 0, 0,
	})
	f.Fuzz(func(t *testing.T, data []byte) {
		p := newRegistryPair()
		for i := 0; i+3 <= len(data); i += 3 {
			op, a, b := data[i], int(data[i+1]), int(data[i+2])
			var g, w string
			switch op % 8 {
			case 0, 1:
				form, scope := int(op/8)%5, int(op/8/5)%len(fuzzScopes)
				g, w = p.register(form, a%fuzzFamilies, scope, b%len(fuzzLabels), b%16)
			case 2:
				p.vars.ints[a%16] += int64(b)
				p.vars.durs[a%16] += time.Duration(b) * time.Millisecond
				p.vars.sums[a%16].Add(float64(b) * float64(time.Millisecond))
			case 3, 7:
				p.gotS.Sample(p.now)
				p.wantS.Sample(p.now)
				p.now += time.Second
				if d := p.diff(); d != "" {
					t.Fatalf("op %d: %s", i/3, d)
				}
			case 4, 5:
				form, scope, pop := int(op/8)%3, int(op/8/3)%len(fuzzScopes), int(op/8/12)%2
				g, w = p.registerColumn(form, a%fuzzFamilies, scope, pop, b%len(fuzzInner), b%16)
			case 6:
				p.want.grow(p.pops[a%2], int64(b%10))
			}
			if g != w {
				t.Fatalf("op %d: registration panicked with %q, reference with %q", i/3, g, w)
			}
		}
		if d := p.diff(); d != "" {
			t.Fatalf("end: %s", d)
		}
	})
}
