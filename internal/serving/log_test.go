package serving

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/eval"
)

// logModel is a corpus that grows by commits, one block per collection —
// the state a sequence of committed runs is generated from.
type logModel struct {
	rng     *rand.Rand
	cols    []*corpus.Collection
	hidden  map[string]bool // collections the next run resolves into no block
	knobs   string
	epoch   uint64
	version uint64
}

func newLogModel(seed int64) *logModel {
	m := &logModel{rng: rand.New(rand.NewSource(seed)), hidden: map[string]bool{}, knobs: "knobs-0"}
	for i := 0; i < 3; i++ {
		m.addCollection()
	}
	return m
}

func (m *logModel) addCollection() {
	col := &corpus.Collection{Name: fmt.Sprintf("person%d maria", len(m.cols))}
	m.cols = append(m.cols, col)
	m.grow(len(m.cols)-1, 2+m.rng.Intn(5))
}

func (m *logModel) grow(ci, n int) {
	col := m.cols[ci]
	// The store hands every snapshot a fresh collection value; documents
	// are only ever appended.
	grown := &corpus.Collection{Name: col.Name, Docs: append([]corpus.Document(nil), col.Docs...)}
	for i := 0; i < n; i++ {
		pos := len(grown.Docs)
		grown.Docs = append(grown.Docs, corpus.Document{ID: pos, URL: fmt.Sprintf("http://example.org/%d/%d", ci, pos)})
	}
	m.cols[ci] = grown
}

// step mutates the corpus the way one kind of commit would and names it.
func (m *logModel) step() string {
	m.version++
	switch op := m.rng.Intn(10); {
	case op < 3:
		m.grow(m.rng.Intn(len(m.cols)), 1+m.rng.Intn(3))
		return "one dirty block"
	case op < 5:
		for i := 0; i < 2+m.rng.Intn(3); i++ {
			m.grow(m.rng.Intn(len(m.cols)), 1+m.rng.Intn(2))
		}
		return "several dirty blocks"
	case op < 6:
		m.addCollection()
		return "new collection"
	case op < 8:
		// Toggle: a block disappears, or one that had comes back.
		name := m.cols[m.rng.Intn(len(m.cols))].Name
		m.hidden[name] = !m.hidden[name]
		return "block disappears or returns"
	case op < 9:
		m.version--
		return "no-change publish"
	default:
		m.knobs = fmt.Sprintf("knobs-%d", m.version)
		return "knobs change"
	}
}

// run is the committed run over the model's current corpus: a block per
// visible collection, fingerprinted by its membership, clustered by a rule
// that depends on the knobs so that a knobs change really changes answers.
func (m *logModel) run() []BlockResolution {
	var blocks []BlockResolution
	for ci, col := range m.cols {
		if m.hidden[col.Name] {
			continue
		}
		h := fnv.New64a()
		fmt.Fprintf(h, "%s/%d", col.Name, len(col.Docs))
		mod := 2 + len(m.knobs)%2
		br := BlockResolution{Fingerprint: h.Sum64(), Name: col.Name,
			Resolution: &core.Resolution{Source: "model/" + m.knobs}}
		for pos := range col.Docs {
			br.Members = append(br.Members, DocRef{Col: ci, Doc: pos})
			br.Resolution.Labels = append(br.Resolution.Labels, pos%mod)
		}
		if ci%2 == 0 {
			br.Score = &eval.Result{Fp: 0.5 + float64(len(col.Docs))/100, F: 0.7, Rand: 0.9}
		}
		blocks = append(blocks, br)
	}
	return blocks
}

// answers renders everything an index can be asked — identity, shape, the
// entity of every document (one past each collection's end included), every
// entity by ID, a search per collection — as one comparable string.
func answers(t testing.TB, x *Index, cols []*corpus.Collection) string {
	t.Helper()
	if err := x.Validate(); err != nil {
		t.Fatalf("index fails Validate: %v", err)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "epoch=%d version=%d knobs=%q blocks=%d clusters=%d docs=%d\n",
		x.Epoch(), x.StoreVersion(), x.Knobs(), len(x.order), x.Clusters(), x.Docs())
	render := func(v any) string {
		buf, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return string(buf)
	}
	ids := map[string]bool{}
	for _, col := range cols {
		for pos := 0; pos <= len(col.Docs); pos++ {
			c := x.DocEntity(col.Name, pos)
			fmt.Fprintf(&b, "doc %s:%d -> %s\n", col.Name, pos, render(c))
			if c != nil && !ids[c.ID] {
				ids[c.ID] = true
				fmt.Fprintf(&b, "entity %s -> %s\n", c.ID, render(x.Entity(c.ID)))
			}
		}
		fmt.Fprintf(&b, "search %q ->", col.Name)
		for _, hit := range x.Search(col.Name, 50) {
			fmt.Fprintf(&b, " %s/%d", hit.Cluster.ID, hit.Matched)
		}
		b.WriteByte('\n')
	}
	if len(ids) != x.Clusters() {
		t.Fatalf("%d clusters reachable through documents, index reports %d", len(ids), x.Clusters())
	}
	return b.String()
}

// committed is one committed state of a log: the corpus it was committed
// over, what the index answered then, and where its record ends.
type committed struct {
	cols    []*corpus.Collection
	answers string
	end     int
}

// committedLog drives a random commit sequence through the writer's
// protocol — EncodeTo for a base, EncodeCommit appended while the index
// extends what the log holds — and returns the bytes of the last log with
// the state after its base and after each of its records. After every
// commit the log must decode to the live index and to a from-scratch build
// of the same run. ops collects the kinds of commit exercised.
func committedLog(t *testing.T, seed int64, commits int, ops map[string]bool) (log []byte, states []committed) {
	t.Helper()
	m := newLogModel(seed)
	var live *Index
	var held *Manifest
	for i := 0; i <= commits; i++ {
		op := "first commit"
		if i > 0 {
			op = m.step()
		}
		ops[op] = true
		m.epoch++
		blocks := m.run()
		live = Build(live, m.epoch, m.version, m.knobs, m.cols, blocks)
		want := answers(t, live, m.cols)
		if fresh := answers(t, Build(nil, m.epoch, m.version, m.knobs, m.cols, blocks), m.cols); fresh != want {
			t.Fatalf("seed %d commit %d (%s): incremental build differs from a from-scratch one:\n%s\nvs\n%s", seed, i, op, want, fresh)
		}

		var rec []byte
		ok := false
		if held != nil {
			rec, ok = live.EncodeCommit(held)
		}
		if ok != (held != nil && op != "knobs change") {
			t.Fatalf("seed %d commit %d (%s): EncodeCommit ok = %v", seed, i, op, ok)
		}
		if ok {
			if op == "no-change publish" && len(rec) > 64 {
				t.Errorf("seed %d commit %d: a no-change record is %d bytes, want a header", seed, i, len(rec))
			}
			log = append(log, rec...)
		} else {
			var buf bytes.Buffer
			if err := live.EncodeTo(&buf); err != nil {
				t.Fatal(err)
			}
			log, states = buf.Bytes(), nil
		}
		states = append(states, committed{cols: append([]*corpus.Collection(nil), m.cols...), answers: want, end: len(log)})
		held = live.Manifest()

		got, tail, err := DecodeLog(bytes.NewReader(log))
		if err != nil || tail != nil {
			t.Fatalf("seed %d commit %d (%s): DecodeLog = (tail %v, err %v)", seed, i, op, tail, err)
		}
		if have := answers(t, got, m.cols); have != want {
			t.Fatalf("seed %d commit %d (%s): decode(base ‖ %d records) differs from the live index:\n%s\nvs\n%s",
				seed, i, op, len(states)-1, have, want)
		}
	}
	return log, states
}

// TestLogDecodesToLiveIndex is the codec's property test: over random
// commit sequences — one dirty block, several, a new collection, a block
// that disappears or returns, a no-change publish, a knobs change —
// decode(base ‖ records) answers every DocEntity, Entity and Search exactly
// as the live index and as Build(nil, …) of the same run, with the live
// identity and shape; and cutting the log at EVERY byte yields exactly the
// state the last whole record committed — never a mix, never an error with
// partial state, never a panic — or, inside the base, ErrCodecCorrupt.
func TestLogDecodesToLiveIndex(t *testing.T) {
	ops := map[string]bool{}
	for seed := int64(1); seed <= 4; seed++ {
		log, states := committedLog(t, seed, 10, ops)
		whole := 0 // records, the base included, wholly inside the cut
		for cut := 0; cut <= len(log); cut++ {
			for whole < len(states) && states[whole].end <= cut {
				whole++
			}
			x, tail, err := DecodeLog(bytes.NewReader(log[:cut]))
			if whole == 0 {
				if !errors.Is(err, ErrCodecCorrupt) || x != nil {
					t.Fatalf("seed %d cut %d (inside the base): DecodeLog = (%v, %v), want ErrCodecCorrupt", seed, cut, x, err)
				}
				continue
			}
			if err != nil {
				t.Fatalf("seed %d cut %d: %v", seed, cut, err)
			}
			last := states[whole-1]
			if onBoundary := last.end == cut; (tail == nil) != onBoundary {
				t.Fatalf("seed %d cut %d: tail = %v, on a record boundary = %v", seed, cut, tail, onBoundary)
			}
			if got := answers(t, x, last.cols); got != last.answers {
				t.Fatalf("seed %d cut %d of %d: decoded state is not the one record %d committed:\n%s\nvs\n%s",
					seed, cut, len(log), whole-1, got, last.answers)
			}
		}
	}
	for _, op := range []string{"one dirty block", "several dirty blocks", "new collection",
		"block disappears or returns", "no-change publish", "knobs change"} {
		if !ops[op] {
			t.Errorf("no sequence exercised %q", op)
		}
	}
}

// TestEntityAnswersOnlyClusterIDs pins that Entity, which reads a cluster's
// block and label out of its ID instead of keeping an ID map, answers
// exactly what such a map over every cluster would: each cluster's own ID,
// and nothing for any other spelling — upper-case hex, 15 or 17 hex
// digits, a signed or zero-padded label, a trailing byte, "" and "-", a
// live block's missing label, a removed block's ID. It runs on the
// indexes Build publishes and DecodeLog reads back over the random commit
// model of TestLogDecodesToLiveIndex.
func TestEntityAnswersOnlyClusterIDs(t *testing.T) {
	upper, removed := 0, 0
	check := func(t *testing.T, x *Index, gone map[uint64]bool) {
		t.Helper()
		byID := map[string]*Cluster{}
		var probes []string
		for _, st := range x.order {
			for _, c := range st.clusters {
				byID[c.ID] = c
				probes = append(probes, c.ID)
			}
			c := st.clusters[1] // every model block has labels 0 and 1
			if c.Label != 1 {
				t.Fatalf("block %016x: second cluster has label %d", st.fp, c.Label)
			}
			hex := c.ID[:16]
			if up := strings.ToUpper(hex); up != hex {
				upper++
				probes = append(probes, up+"-1")
			}
			probes = append(probes, hex[1:]+"-1", "0"+hex+"-1", hex+"-+1", hex+"-01",
				c.ID+"x", c.ID+" ", ClusterID(st.fp, len(st.clusters)), ClusterID(st.fp, -1))
		}
		for fp := range gone {
			if x.blocks[fp] == nil {
				removed++
				probes = append(probes, ClusterID(fp, 0), ClusterID(fp, 1))
			}
		}
		probes = append(probes, "", "-", "nope")
		for _, id := range probes {
			if got, want := x.Entity(id), byID[id]; got != want {
				t.Fatalf("Entity(%q) = %v, an ID map answers %v", id, got, want)
			}
		}
		if len(byID) != x.Clusters() {
			t.Fatalf("%d distinct cluster IDs, index reports %d clusters", len(byID), x.Clusters())
		}
	}
	for seed := int64(1); seed <= 4; seed++ {
		m := newLogModel(seed)
		var live *Index
		var held *Manifest
		var log []byte
		gone := map[uint64]bool{} // blocks some commit dropped
		for i := 0; i <= 10; i++ {
			if i > 0 {
				m.step()
			}
			m.epoch++
			prev := live
			live = Build(live, m.epoch, m.version, m.knobs, m.cols, m.run())
			if prev != nil {
				for fp := range prev.blocks {
					if live.blocks[fp] == nil {
						gone[fp] = true
					}
				}
			}
			rec, ok := []byte(nil), false
			if held != nil {
				rec, ok = live.EncodeCommit(held)
			}
			if ok {
				log = append(log, rec...)
			} else {
				var buf bytes.Buffer
				if err := live.EncodeTo(&buf); err != nil {
					t.Fatal(err)
				}
				log = buf.Bytes()
			}
			held = live.Manifest()
			decoded, tail, err := DecodeLog(bytes.NewReader(log))
			if err != nil || tail != nil {
				t.Fatalf("seed %d commit %d: DecodeLog = (tail %v, err %v)", seed, i, tail, err)
			}
			check(t, live, gone)
			check(t, decoded, gone)
		}
	}
	if upper == 0 || removed == 0 {
		t.Fatalf("probed %d upper-case and %d removed-block IDs; the model must produce both", upper, removed)
	}
}

// FuzzDecodeServingLog feeds arbitrary bytes to the log reader: it must not
// panic, must not let a corrupt length size an allocation (the record
// reader checks a declared length against the bytes present first), and
// whatever index it returns must be internally consistent, each block with
// one recovered label per member.
func FuzzDecodeServingLog(f *testing.F) {
	cols, blocks := fixture()
	x := Build(nil, 1, 10, "knobs", cols, blocks)
	var base bytes.Buffer
	if err := x.EncodeTo(&base); err != nil {
		f.Fatal(err)
	}
	grown := append([]BlockResolution(nil), blocks...)
	grown[1].Fingerprint = 0xCCCC
	y := Build(x, 2, 11, "knobs", cols, grown)
	rec, ok := y.EncodeCommit(x.Manifest())
	if !ok {
		f.Fatal("EncodeCommit refused an extension")
	}
	nochange, _ := Build(y, 3, 11, "knobs", cols, grown).EncodeCommit(y.Manifest())
	log := append(append(append([]byte(nil), base.Bytes()...), rec...), nochange...)
	f.Add(base.Bytes())
	f.Add(log)
	f.Add(base.Bytes()[:base.Len()/2])
	f.Add(log[:base.Len()+len(rec)/2])
	f.Add(log[:len(log)-3])

	f.Fuzz(func(t *testing.T, data []byte) {
		x, _, err := DecodeLog(bytes.NewReader(data))
		if err != nil {
			if x != nil {
				t.Fatal("DecodeLog returned an index with an error")
			}
			return
		}
		if err := x.Validate(); err != nil {
			t.Fatalf("decoded index is inconsistent: %v", err)
		}
		for _, st := range x.order {
			members := 0
			for _, c := range st.clusters {
				members += len(c.Members)
			}
			if len(st.res.Labels) != members {
				t.Fatalf("block %016x decoded %d labels for %d members", st.fp, len(st.res.Labels), members)
			}
		}
	})
}
