package metrics

import (
	"cmp"
	"fmt"
	"io"
	"slices"
	"strings"
	"testing"
	"time"

	"spritefs/internal/stats"
)

// referenceRegistry is the reference model of Registry: the layout it
// replaced, in which every instance is its own struct from a bump-pointer
// slab, carrying a copy of its label set, five value fields of which one is
// set, and each family a map from rendered labels to instance for the
// duplicate check. It shares the label rendering and the point format with
// Registry; everything that stores, finds and reads instances is its own.
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
	sumFn  func() stats.Welford
}

func (m *refMetric) isInt() bool { return m.intPtr != nil || m.intFn != nil }
func (m *refMetric) isDur() bool { return m.durPtr != nil }

func (m *refMetric) intVal() int64 {
	if m.intPtr != nil {
		return *m.intPtr
	}
	return m.intFn()
}

func (m *refMetric) durVal() time.Duration { return *m.durPtr }

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
	slab    []refMetric
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
	s.scratch = appendLabelSet(s.scratch[:0], scope, ls)
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

func (s *refStore) newMetric() *refMetric {
	if len(s.slab) == 0 {
		s.slab = make([]refMetric, 512)
	}
	m := &s.slab[0]
	s.slab = s.slab[1:]
	return m
}

func (r *referenceRegistry) add(d Desc, ls Labels) *refMetric {
	f := r.family(d)
	set := r.s.intern(r.scope, ls)
	m := r.s.newMetric()
	m.labels = set.labels
	m.key = set.key
	if f.byKey == nil {
		f.byKey = make(map[string]*refMetric)
	}
	if f.byKey[m.key] != nil {
		panic(fmt.Sprintf("metrics: duplicate instance %s%s", d.Name, m.key))
	}
	f.byKey[m.key] = m
	f.instances = append(f.instances, m)
	return m
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

func (r *referenceRegistry) WritePrometheus(w io.Writer) error {
	var lastFam string
	for _, p := range r.Snapshot() {
		fam := familyOf(p)
		if fam.name != lastFam {
			lastFam = fam.name
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n",
				fam.name, fam.help, fam.name, fam.promType); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s%s %s\n", p.Name, p.Labels, p.Value()); err != nil {
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
		if _, err := fmt.Fprintf(w, "%s\t%s\t%s\t%s\n", p.Name, labels, p.Unit, p.Value()); err != nil {
			return err
		}
	}
	return nil
}

func (r *referenceRegistry) WriteJSONL(w io.Writer) error {
	for _, p := range r.Snapshot() {
		if _, err := fmt.Fprintf(w, "{\"name\":%q,\"labels\":%q,\"unit\":%q,\"value\":%s}\n",
			p.Name, p.Labels, p.Unit, p.Value()); err != nil {
			return err
		}
	}
	return nil
}

// refSampler is the reference model of Sampler, over a referenceRegistry:
// each column holds its instance's pointer, which the slab never moves.
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
// keys and values with one another.
var (
	fuzzScopes = [][]Label{nil, {L("shard", "0")}, {L("shard", "1")}, {L("shard", "0"), L("site", "1")}}
	fuzzLabels = []Labels{
		nil,
		{L("client", "a")},
		{L("client", "b")},
		{L("client", "a"), L("scope", "all")},
		{L("client", "a"), L("reason", "x\"y")},
		{L("shard", "1")},
	}
	fuzzSelectors = [][]Label{
		nil, {L("client", "a")}, {L("shard", "0")}, {L("scope", "all")},
		{L("client", "a"), L("shard", "1")}, {L("site", "1")},
	}
)

// fuzzVars are the counters both registries read: one registration binds
// slot n%len of its kind, and a bump op writes a slot.
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
	now     time.Duration
	touched map[string]bool
}

func newRegistryPair() *registryPair {
	p := &registryPair{got: New(), want: newReferenceRegistry(), vars: new(fuzzVars), touched: map[string]bool{}}
	p.gotS = NewSampler(p.got, nil)
	p.wantS = &refSampler{reg: p.want}
	return p
}

// register makes one registration through both registries and returns
// each one's panic, "" for none.
func (p *registryPair) register(form, fam, scope, labels, slot int) (gotPanic, wantPanic string) {
	d, sc, ls := fuzzDesc(fam), fuzzScopes[scope], fuzzLabels[labels]
	v := p.vars
	catch := func(out *string, reg func()) {
		defer func() {
			if r := recover(); r != nil {
				*out = fmt.Sprint(r)
			}
		}()
		reg()
	}
	g, w := p.got.Scoped(sc...), p.want.Scoped(sc...)
	switch form {
	case 0:
		fn := func() int64 { return v.ints[slot] * 3 }
		catch(&gotPanic, func() { g.Int(d, ls, fn) })
		catch(&wantPanic, func() { w.Int(d, ls, fn) })
	case 1:
		catch(&gotPanic, func() { g.IntVar(d, ls, &v.ints[slot]) })
		catch(&wantPanic, func() { w.IntVar(d, ls, &v.ints[slot]) })
	case 2:
		catch(&gotPanic, func() { g.SecondsVar(d, ls, &v.durs[slot]) })
		catch(&wantPanic, func() { w.SecondsVar(d, ls, &v.durs[slot]) })
	case 3:
		fn := func() stats.Welford { return v.sums[slot] }
		catch(&gotPanic, func() { g.HistSeconds(d, ls, fn) })
		catch(&wantPanic, func() { w.HistSeconds(d, ls, fn) })
	default:
		catch(&gotPanic, func() { g.HistSecondsVar(d, ls, &v.sums[slot]) })
		catch(&wantPanic, func() { w.HistSecondsVar(d, ls, &v.sums[slot]) })
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

// FuzzRegistry: under any sequence of registrations, counter bumps, samples
// and snapshots, Registry and its Sampler report exactly what the reference
// model does, and the same registrations panic with the same text.
//
// Each operation is three bytes: op, then two arguments.
//
//	op%4 == 0, 1: register; op/4 picks the form (5) and the scope (4),
//	              a the family (fuzzFamilies), b the label set and the slot
//	op%4 == 2:    bump slot a%16 of each kind by b
//	op%4 == 3:    sample both samplers, then compare everything
func FuzzRegistry(f *testing.F) {
	f.Add([]byte{})
	// One instance, a duplicate of it, the same labels in another scope.
	f.Add([]byte{1 << 2, 0, 1, 1 << 2, 0, 1, 5 << 2, 0, 1, 2, 0, 7, 3, 0, 0})
	// Every form over families past the first 64, bumped and sampled twice.
	f.Add([]byte{
		0, 64, 1, 1 << 2, 65, 2, 2 << 2, 66, 3, 3 << 2, 67, 4, 4 << 2, 68, 0,
		3, 0, 0, 2, 0, 9, 2, 1, 200, 3, 0, 0,
		1 << 2, 1, 1, 0, 2, 1, 3, 0, 0,
	})
	f.Fuzz(func(t *testing.T, data []byte) {
		p := newRegistryPair()
		for i := 0; i+3 <= len(data); i += 3 {
			op, a, b := data[i], int(data[i+1]), int(data[i+2])
			switch op % 4 {
			case 0, 1:
				form, scope := int(op/4)%5, int(op/4/5)%len(fuzzScopes)
				g, w := p.register(form, a%fuzzFamilies, scope, b%len(fuzzLabels), b%16)
				if g != w {
					t.Fatalf("op %d: registration panicked with %q, reference with %q", i/3, g, w)
				}
			case 2:
				p.vars.ints[a%16] += int64(b)
				p.vars.durs[a%16] += time.Duration(b) * time.Millisecond
				p.vars.sums[a%16].Add(float64(b) * float64(time.Millisecond))
			case 3:
				p.gotS.Sample(p.now)
				p.wantS.Sample(p.now)
				p.now += time.Second
				if d := p.diff(); d != "" {
					t.Fatalf("op %d: %s", i/3, d)
				}
			}
		}
		if d := p.diff(); d != "" {
			t.Fatalf("end: %s", d)
		}
	})
}
